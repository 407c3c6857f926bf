// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) from the analytic machine models: the
// whole-network strategy comparisons (Figures 5, 6, 7a, 7b), the
// absolute-time tables (Tables 2 and 3), the qualitative family-traits
// table (Table 1), the worked PBQP example (Figure 2) and the AlexNet
// selection maps (Figure 4), plus the §8 sparsity and minibatch
// extensions. Each experiment returns structured data consumed by the
// dnnbench command, the root package's Go benchmarks and the
// trend-assertion tests. Every time reported here is a cost-model
// prediction, apart from the PBQP solve time of §5.4: no network is
// executed (benchmark/ measures the engine).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// StrategyResult is one bar of a whole-network figure.
type StrategyResult struct {
	Strategy string
	// TimeMS is the predicted single-inference time in model ms.
	TimeMS float64
	// Speedup is relative to the common single-threaded sum2d baseline
	// (§5.2).
	Speedup float64
	// Optimal reports the PBQP solver's optimality claim where
	// applicable.
	Optimal bool
	// SolveMS is the PBQP solve time in wall-clock ms.
	SolveMS float64
}

// NetworkResult is one group of bars.
type NetworkResult struct {
	Network    string
	Machine    string
	Threads    int
	BaselineMS float64
	Results    []StrategyResult
}

// Get returns the named strategy's result.
func (nr *NetworkResult) Get(strategy string) (StrategyResult, bool) {
	for _, r := range nr.Results {
		if r.Strategy == strategy {
			return r, true
		}
	}
	return StrategyResult{}, false
}

// strategyFunc builds a plan for a network under given options.
type strategyFunc func(opts selector.Options) (*selector.Plan, error)

// strategiesFor lists the evaluation strategies in the paper's bar
// order for the given platform: the five family bars, local-optimal
// CHW, PBQP, then the platform's vendor libraries and Caffe.
func strategiesFor(netName string, machine cost.Machine) []struct {
	name string
	fn   func(net string, opts selector.Options) (*selector.Plan, error)
} {
	type entry = struct {
		name string
		fn   func(net string, opts selector.Options) (*selector.Plan, error)
	}
	mk := func(name string, f func(net string, opts selector.Options) (*selector.Plan, error)) entry {
		return entry{name, f}
	}
	famBar := func(f conv.Family) func(net string, opts selector.Options) (*selector.Plan, error) {
		return func(net string, opts selector.Options) (*selector.Plan, error) {
			g, err := models.Build(net)
			if err != nil {
				return nil, err
			}
			return selector.FamilyBest(g, f, opts)
		}
	}
	es := []entry{
		mk("direct", famBar(conv.FamilyDirect)),
		mk("im2", famBar(conv.FamilyIm2)),
		mk("kn2", famBar(conv.FamilyKn2)),
		mk("winograd", famBar(conv.FamilyWinograd)),
		mk("fft", famBar(conv.FamilyFFT)),
		mk("local-opt", func(net string, opts selector.Options) (*selector.Plan, error) {
			g, err := models.Build(net)
			if err != nil {
				return nil, err
			}
			return selector.LocalOptimal(g, tensor.CHW, opts)
		}),
		mk("pbqp", func(net string, opts selector.Options) (*selector.Plan, error) {
			g, err := models.Build(net)
			if err != nil {
				return nil, err
			}
			return selector.Select(g, opts)
		}),
	}
	if machine.Name == cost.IntelHaswell.Name {
		es = append(es, mk("mkldnn", func(net string, opts selector.Options) (*selector.Plan, error) {
			g, err := models.Build(net)
			if err != nil {
				return nil, err
			}
			return selector.MKLDNNProxy(g, opts)
		}))
	} else {
		es = append(es, mk("armcl", func(net string, opts selector.Options) (*selector.Plan, error) {
			g, err := models.Build(net)
			if err != nil {
				return nil, err
			}
			return selector.ARMCLProxy(g, opts)
		}))
	}
	es = append(es, mk("caffe", func(net string, opts selector.Options) (*selector.Plan, error) {
		g, err := models.Build(net)
		if err != nil {
			return nil, err
		}
		return selector.CaffeProxy(g, opts)
	}))
	return es
}

// WholeNetwork runs the full strategy comparison for one network on one
// machine at the given thread count.
func WholeNetwork(netName string, machine cost.Machine, threads int) (*NetworkResult, error) {
	prof := cost.NewModel(machine)
	opts := selector.Options{Prof: prof, Threads: threads}

	g, err := models.Build(netName)
	if err != nil {
		return nil, err
	}
	base, err := selector.Baseline(g, opts)
	if err != nil {
		return nil, err
	}
	nr := &NetworkResult{
		Network:    netName,
		Machine:    machine.Name,
		Threads:    threads,
		BaselineMS: base.TotalCost() * 1e3,
	}
	for _, st := range strategiesFor(netName, machine) {
		plan, err := st.fn(netName, opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", netName, st.name, err)
		}
		nr.Results = append(nr.Results, StrategyResult{
			Strategy: st.name,
			TimeMS:   plan.TotalCost() * 1e3,
			Speedup:  base.TotalCost() / plan.TotalCost(),
			Optimal:  plan.Optimal,
			SolveMS:  plan.SolveTime.Seconds() * 1e3,
		})
	}
	return nr, nil
}

// FormatNetworkResult renders one bar group like the paper's figures.
func FormatNetworkResult(nr *NetworkResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s, threads=%d (baseline sum2d: %.1f ms)\n",
		nr.Network, nr.Machine, nr.Threads, nr.BaselineMS)
	for _, r := range nr.Results {
		bar := strings.Repeat("█", int(r.Speedup*2+0.5))
		fmt.Fprintf(&b, "  %-10s %6.2fx  %9.1f ms  %s\n", r.Strategy, r.Speedup, r.TimeMS, bar)
	}
	return b.String()
}

// SortedStrategies returns strategy names ordered by speedup
// descending — handy for assertions and summaries.
func (nr *NetworkResult) SortedStrategies() []string {
	rs := append([]StrategyResult(nil), nr.Results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Speedup > rs[j].Speedup })
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Strategy
	}
	return names
}
