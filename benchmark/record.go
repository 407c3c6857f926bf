package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/selector"
)

// Contract mirrors BENCHMARK.json: the metric names, units, directions
// and regression bounds every result is held to. The harness reads it
// rather than repeating it, so the file stays the one definition.
type Contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// MetricDef is one named metric of the contract. Bound is the share of
// the other side's value by which the metric may be worse (end-to-end
// metrics only).
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Environment is the part of a result's fingerprint that names the
// machine and build. Numbers from different GEMM microkernels or
// thread counts are different experiments; compare refuses to mix them.
type Environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Threads     int    `json:"threads"`
	GemmVariant string `json:"gemm_variant"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

func environment(threads int) Environment {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return Environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Threads:     threads,
		GemmVariant: gemm.Variant(),
		GoVersion:   runtime.Version(),
		Commit:      commit,
	}
}

// Metric is one measured value with its unit, as printed.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is the result of one workload run.
type Record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      Environment `json:"env"`
	// PlanFingerprint hashes the per-layer primitive/layout choice the
	// run executed; Plan lists it. Run-time numbers of two records are
	// comparable layer by layer only under the same fingerprint.
	PlanFingerprint string   `json:"plan_fingerprint"`
	Plan            []string `json:"plan"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Missed counts requests the server shed, expired or answered past
	// the overload limit. They lower overload_goodput_rps and weigh on
	// the steady percentiles; they are not failures.
	Missed int `json:"missed"`

	Metrics map[string]Metric `json:"metrics"`
	// Spread is, per sample-derived end-to-end metric, its quartile
	// spread over five consecutive windows of this run (blockSpread).
	Spread map[string]float64 `json:"spread,omitempty"`
	// Notes records sample counts and the percentile each pXX metric
	// actually resolved to under the ten-beyond rule.
	Notes map[string]string `json:"notes,omitempty"`
}

func newRecord(name string, o runOpts, env Environment) *Record {
	return &Record{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Env: env,
		Metrics: map[string]Metric{}, Spread: map[string]float64{}, Notes: map[string]string{},
	}
}

func (r *Record) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// setPlan records the per-layer choice of the plans the run executed
// (one per batch bucket for a served model) and its hash.
func (r *Record) setPlan(plans ...*selector.Plan) {
	r.Plan = r.Plan[:0]
	for _, p := range plans {
		for _, l := range p.Net.Layers {
			choice := fmt.Sprintf("%s:%s", l.Name, p.Layouts[l.ID])
			if prim := p.Primitives[l.ID]; prim != nil {
				choice = fmt.Sprintf("%s=%s:%s>%s", l.Name, prim.Name, prim.In, prim.Out)
			}
			r.Plan = append(r.Plan, fmt.Sprintf("b%d %s", max(p.Batch, 1), choice))
		}
	}
	h := sha256.New()
	for _, s := range r.Plan {
		io.WriteString(h, s+"\n")
	}
	r.PlanFingerprint = fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// check verifies the record carries exactly the contract's metrics for
// its mode, under the contract's units.
func (r *Record) check(c *Contract) error {
	defs := c.EndToEnd
	if r.Traced {
		defs = c.PerLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.Workload, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", r.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: measured %d metrics, BENCHMARK.json lists %d", r.Workload, len(r.Metrics), len(defs))
	}
	return nil
}

// print writes the record as a table, metrics in contract order.
func (r *Record) print(w io.Writer, c *Contract) {
	mode, defs := "end-to-end", c.EndToEnd
	if r.Traced {
		mode, defs = "per-layer (traced run)", c.PerLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %.0fs ==\n", r.Workload, mode, r.Seed, r.Seconds)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d threads=%d gemm=%s %s commit=%s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Threads, r.Env.GemmVariant, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "plan fingerprint %s   operations: attempted %d, failed %d, missed %d, correct=%v\n",
		r.PlanFingerprint, r.Attempted, r.Failed, r.Missed, r.Correct)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			fmt.Fprintf(w, "  window spread %4.1f%%", s*100)
		}
		if n, ok := r.Notes[d.Name]; ok {
			fmt.Fprintf(w, "  (%s)", n)
		}
		fmt.Fprintln(w)
	}
	var keys []string
	for k := range r.Notes {
		if _, isMetric := r.Metrics[k]; !isMetric {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note %s: %s\n", k, r.Notes[k])
	}
}

// resultLine is the last line of a single-workload run's output.
func (r *Record) resultLine() string {
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(out)
}

// ResultSet is one pass over every workload: what results.json holds
// and what -compare reads.
type ResultSet struct {
	Env     Environment `json:"env"`
	Records []*Record   `json:"records"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// Verdict is one (workload, end-to-end metric) row of a comparison.
type Verdict struct {
	Workload, Metric string
	A, B             float64
	// WorseBy is how much worse B is than A as a share of A, in the
	// metric's own direction (negative = B is better).
	WorseBy, Bound float64
	// Unresolved marks a metric whose spread within either run exceeds
	// its bound: the runs cannot tell a change of that size from noise.
	Unresolved bool
	Over       bool
}

// compare diffs the untraced records of two result sets metric by
// metric. With symmetric set, a gap in either direction counts (two
// runs of the same code must agree); otherwise only B being worse does.
func compare(c *Contract, a, b *ResultSet, symmetric bool) ([]Verdict, error) {
	if a.Env.GemmVariant != b.Env.GemmVariant || a.Env.Threads != b.Env.Threads {
		return nil, fmt.Errorf("refusing to compare: gemm variant %s with %d threads against %s with %d threads",
			a.Env.GemmVariant, a.Env.Threads, b.Env.GemmVariant, b.Env.Threads)
	}
	find := func(rs *ResultSet, w string) *Record {
		for _, r := range rs.Records {
			if r.Workload == w && !r.Traced {
				return r
			}
		}
		return nil
	}
	var out []Verdict
	for _, w := range c.Workloads {
		ra, rb := find(a, w.Name), find(b, w.Name)
		if ra == nil || rb == nil {
			return nil, fmt.Errorf("workload %s is missing from one side", w.Name)
		}
		for _, d := range c.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			v := Verdict{Workload: w.Name, Metric: d.Name, A: va, B: vb, Bound: d.Bound}
			if va != 0 {
				v.WorseBy = (vb - va) / va
				if d.Better == "higher" {
					v.WorseBy = -v.WorseBy
				}
			}
			gap := v.WorseBy
			if symmetric {
				gap = math.Abs(gap)
			}
			v.Over = gap > d.Bound
			v.Unresolved = ra.Spread[d.Name] > d.Bound || rb.Spread[d.Name] > d.Bound
			out = append(out, v)
		}
	}
	return out, nil
}

// printVerdicts renders the comparison and reports whether it passes:
// no gap over its bound. Unresolved rows never pass as "unchanged";
// they are listed as such.
func printVerdicts(w io.Writer, vs []Verdict, planNote string) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "gap", "bound", "verdict")
	for _, v := range vs {
		verdict := "within bound"
		switch {
		case v.Over:
			verdict, ok = "OVER BOUND", false
		case v.Unresolved:
			verdict = "unresolved (window spread exceeds bound)"
		}
		fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, v.WorseBy*100, v.Bound*100, verdict)
	}
	if planNote != "" {
		fmt.Fprintln(w, planNote)
	}
	return ok
}

// planNote lists the workloads whose calibrated plan differs between
// the two sets: a run-time gap there may be a selection flip, not a
// speed change.
func planNote(a, b *ResultSet) string {
	note := ""
	for _, ra := range a.Records {
		for _, rb := range b.Records {
			if ra.Workload == rb.Workload && !ra.Traced && !rb.Traced && ra.PlanFingerprint != rb.PlanFingerprint {
				note += fmt.Sprintf("note: %s ran plan %s in the first set and %s in the second\n",
					ra.Workload, ra.PlanFingerprint, rb.PlanFingerprint)
			}
		}
	}
	return note
}
