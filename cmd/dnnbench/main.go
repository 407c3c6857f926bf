// Command dnnbench regenerates the paper's evaluation artifacts: every
// whole-network figure, the absolute-time tables, the qualitative
// family-traits table, the worked PBQP example, the selection maps and
// the §5.8 trend checks.
//
// Usage:
//
//	dnnbench -exp all
//	dnnbench -exp fig6
//	dnnbench -exp table3
//	dnnbench -exp trends
//	dnnbench -exp minibatch -threads 8 -batch 1,4,32
//	dnnbench -exp minibatch -json
//	dnnbench -dump-program -net googlenet -strategy pbqp
//
// The -threads and -batch flags size the batched execution engine the
// minibatch experiment measures; -json switches the minibatch
// experiment to machine-readable output (one record per batch size
// with net, threads, and measured ns/op) so the perf trajectory can be
// tracked across commits. -dump-program compiles the chosen network's
// plan once and prints the executable Program IR — the instruction
// stream the engine runs, with its static memory plan and stats
// (instructions, slots, peak resident bytes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/experiments"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnnbench: ")
	exp := flag.String("exp", "all",
		"experiment: table1, table2, table3, fig2, fig4, fig5, fig6, fig7a, fig7b, solver, sparsity, minibatch, trends, all; "+
			"plus plansweep, fusesweep, gemmsweep and layerprof (excluded from 'all': they execute real workloads, minutes on the full models)")
	threads := flag.Int("threads", 4, "execution thread budget for the experiment engines")
	batch := flag.String("batch", "1,2,4,8,16", "comma-separated minibatch sizes for the minibatch and sweep experiments")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON records (supported by -exp minibatch, plansweep, fusesweep, gemmsweep and layerprof)")
	sizes := flag.String("sizes", "256,512", "comma-separated square GEMM sizes for -exp gemmsweep")
	dump := flag.Bool("dump-program", false, "compile -net under -strategy and print the Program IR (instructions + memory plan), then exit")
	netName := flag.String("net", "googlenet", "network for -dump-program and -exp plansweep/fusesweep/layerprof (alexnet, vgg-b/c/d/e, googlenet, resnet-18, smallnet, micronet)")
	model := flag.Bool("model", false, "plansweep: select against the analytic Intel model instead of calibrating measured costs on this host")
	reps := flag.Int("reps", 1, "plansweep: calibration measurement repetitions (best-of); layerprof: profiled engine runs per batch size")
	topK := flag.Int("calibrate-top", 4, "plansweep: measure only the analytic model's k cheapest candidates per layer per batch (0 = all)")
	strategy := flag.String("strategy", "pbqp",
		"selection strategy for -dump-program: pbqp, baseline, local-opt, no-edge-cost, mkldnn, armcl, caffe, direct, im2, kn2, winograd, fft")
	flag.Parse()

	if *dump {
		if err := validateNet(*netName); err != nil {
			log.Fatal(err)
		}
		if err := dumpProgram(*netName, *strategy, *threads); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *exp == "plansweep" || *exp == "fusesweep" || *exp == "layerprof" {
		if err := validateNet(*netName); err != nil {
			log.Fatal(err)
		}
	}
	batches, err := parseBatches(*batch)
	if err != nil {
		log.Fatal(err)
	}
	if *threads < 1 {
		log.Fatalf("-threads must be ≥ 1, got %d", *threads)
	}

	runners := map[string]func() error{
		"table1": func() error {
			fmt.Print(experiments.FormatTable1(experiments.Table1(cost.IntelHaswell)))
			return nil
		},
		"table2": func() error {
			rows, err := experiments.Table2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable("Table 2: single inference on Intel Core i5-4570 (model ms)", rows))
			return nil
		},
		"table3": func() error {
			rows, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable("Table 3: single inference on ARM Cortex-A57 (model ms)", rows))
			return nil
		},
		"fig2": func() error {
			r := experiments.Figure2()
			fmt.Println("== Figure 2: worked PBQP example ==")
			fmt.Printf("node costs only: selection %v, total %.0f\n", r.NodeOnlySelection, r.NodeOnlyCost)
			fmt.Printf("with edge costs: selection %v, total %.0f\n", r.FullSelection, r.FullCost)
			return nil
		},
		"fig4": func() error {
			intel, arm, err := experiments.Figure4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure4(intel, arm))
			return nil
		},
		"fig5":  figure("Figure 5: single-threaded, Intel Haswell", experiments.Figure5),
		"fig6":  figure("Figure 6: multithreaded, Intel Haswell", experiments.Figure6),
		"fig7a": figure("Figure 7a: single-threaded, ARM Cortex-A57", experiments.Figure7a),
		"fig7b": figure("Figure 7b: multithreaded, ARM Cortex-A57", experiments.Figure7b),
		"solver": func() error {
			ov, err := experiments.SolverOverheads(cost.IntelHaswell, 4)
			if err != nil {
				return err
			}
			fmt.Println("== §5.4 solver overheads ==")
			for n, r := range ov {
				fmt.Printf("  %-10s solve %.2f ms, optimal=%v\n", n, r.SolveMS, r.Optimal)
			}
			return nil
		},
		"sparsity": func() error {
			pts, err := experiments.SparsitySweep()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSparsitySweep(pts))
			return nil
		},
		"minibatch": func() error {
			pts, err := experiments.MinibatchSweepOpts(*threads, batches)
			if err != nil {
				return err
			}
			if *jsonOut {
				return writeBenchJSON(pts, *threads)
			}
			fmt.Print(experiments.FormatMinibatchSweep(pts))
			return nil
		},
		"plansweep": func() error {
			o := experiments.PlanSweepOptions{Reps: *reps, TopK: *topK}
			if *model {
				o.Prof = cost.NewModel(cost.IntelHaswell)
			}
			pts, err := experiments.PlanSweep(*netName, *threads, batches, o)
			if err != nil {
				return err
			}
			if *jsonOut {
				return writePlanSweepJSON(pts)
			}
			fmt.Print(experiments.FormatPlanSweep(pts))
			return nil
		},
		"fusesweep": func() error {
			pts, err := experiments.FuseSweep(*netName, *threads, batches)
			if err != nil {
				return err
			}
			if *jsonOut {
				return writeFuseSweepJSON(pts)
			}
			fmt.Print(experiments.FormatFuseSweep(pts))
			return nil
		},
		"layerprof": func() error {
			tables, err := experiments.LayerProf(*netName, *threads, batches, *reps)
			if err != nil {
				return err
			}
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(tables)
			}
			fmt.Print(experiments.FormatLayerProf(tables))
			return nil
		},
		"gemmsweep": func() error {
			ns, err := parseBatches(*sizes)
			if err != nil {
				return fmt.Errorf("-sizes: %v", err)
			}
			pts := experiments.GemmSweep(ns, *threads, *reps)
			if *jsonOut {
				return writeGemmSweepJSON(pts, *threads)
			}
			fmt.Print(experiments.FormatGemmSweep(pts))
			return nil
		},
		"trends": func() error {
			ts, err := experiments.CheckTrends()
			if err != nil {
				return err
			}
			fmt.Println("== §5.6–§5.8 trend checks ==")
			for _, t := range ts {
				status := "PASS"
				if !t.OK {
					status = "FAIL"
				}
				fmt.Printf("  [%s] %-38s %s\n", status, t.Name, t.Note)
			}
			return nil
		},
	}
	order := []string{"table1", "fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b",
		"table2", "table3", "solver", "sparsity", "minibatch", "trends"}

	if *jsonOut && *exp != "minibatch" && *exp != "plansweep" && *exp != "fusesweep" && *exp != "gemmsweep" && *exp != "layerprof" {
		log.Fatalf("-json is supported for -exp minibatch, plansweep, fusesweep, gemmsweep and layerprof (got -exp %s)", *exp)
	}
	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (have %v, all, plansweep, fusesweep, gemmsweep, layerprof)", *exp, order)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// benchRecord is one machine-readable measurement: the schema perf
// tracking scripts diff across commits.
type benchRecord struct {
	Benchmark  string  `json:"benchmark"`
	Net        string  `json:"net"`
	Batch      int     `json:"batch"`
	Threads    int     `json:"threads"`
	NsPerOp    float64 `json:"ns_per_op"` // wall ns per image through the batched engine
	TotalNs    float64 `json:"total_ns"`  // wall ns for the whole minibatch
	ModelMSOp  float64 `json:"model_ms_per_image"`
	ModelMSTot float64 `json:"model_ms_total"`
}

// writeBenchJSON emits the minibatch sweep as one JSON array of
// records: benchmark name, net, batch, threads, measured ns/op, plus
// the cost model's predictions for drift comparison.
func writeBenchJSON(pts []experiments.MinibatchPoint, threads int) error {
	recs := make([]benchRecord, len(pts))
	for i, p := range pts {
		recs[i] = benchRecord{
			Benchmark:  "minibatch",
			Net:        "batched-net",
			Batch:      p.Batch,
			Threads:    threads,
			NsPerOp:    p.WallPerImageMS * 1e6,
			TotalNs:    p.WallTotalMS * 1e6,
			ModelMSOp:  p.PerImageMS,
			ModelMSTot: p.TotalMS,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// planSweepRecord is one machine-readable plan-vs-plan measurement:
// per batch size, the layers that switch primitive under batch-aware
// selection and the measured per-image speedup of the batch-N plan
// over the batch-1 plan, both executed by the batched engine. CI
// archives these records per commit.
type planSweepRecord struct {
	Benchmark            string                   `json:"benchmark"`
	Net                  string                   `json:"net"`
	Batch                int                      `json:"batch"`
	Threads              int                      `json:"threads"`
	Calibrated           bool                     `json:"calibrated"`
	Switches             []experiments.PlanSwitch `json:"switches"`
	Batch1PlanNsPerImage float64                  `json:"batch1_plan_ns_per_image"`
	BatchPlanNsPerImage  float64                  `json:"batchn_plan_ns_per_image"`
	SpeedupX             float64                  `json:"batchn_plan_speedup_x"`
	PredictedBatch1MS    float64                  `json:"predicted_batch1_ms_per_image"`
	PredictedBatchMS     float64                  `json:"predicted_batchn_ms_per_image"`
}

// writePlanSweepJSON emits the plan sweep as one JSON array of records.
func writePlanSweepJSON(pts []experiments.PlanSweepPoint) error {
	recs := make([]planSweepRecord, len(pts))
	for i, p := range pts {
		recs[i] = planSweepRecord{
			Benchmark:            "plansweep",
			Net:                  p.Net,
			Batch:                p.Batch,
			Threads:              p.Threads,
			Calibrated:           p.Calibrated,
			Switches:             p.Switches,
			Batch1PlanNsPerImage: p.Batch1PlanNsPerImage,
			BatchPlanNsPerImage:  p.BatchPlanNsPerImage,
			SpeedupX:             p.SpeedupX,
			PredictedBatch1MS:    p.PredictedBatch1MS,
			PredictedBatchMS:     p.PredictedBatchMS,
		}
		if recs[i].Switches == nil {
			recs[i].Switches = []experiments.PlanSwitch{}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// fuseSweepRecord is one machine-readable fused-vs-unfused
// measurement: the same batch-N plan compiled with and without the
// fusion pass, both executed by the batched engine. CI archives these
// records per commit so the fusion win (and the program-shape deltas
// behind it) is diffable across the project's history.
type fuseSweepRecord struct {
	Benchmark           string  `json:"benchmark"`
	Net                 string  `json:"net"`
	Batch               int     `json:"batch"`
	Threads             int     `json:"threads"`
	NsPerOp             float64 `json:"ns_per_op"` // fused engine, wall ns per image
	UnfusedNsPerOp      float64 `json:"unfused_ns_per_op"`
	FusedSpeedupX       float64 `json:"fused_speedup_x"`
	Instructions        int     `json:"instructions"`
	UnfusedInstructions int     `json:"unfused_instructions"`
	FusedEpilogues      int     `json:"fused_epilogues"`
	FusedConversions    int     `json:"fused_conversions"`
	PeakBytes           int64   `json:"peak_bytes"`
	UnfusedPeakBytes    int64   `json:"unfused_peak_bytes"`
}

// writeFuseSweepJSON emits the fusion sweep as one JSON array of
// records.
func writeFuseSweepJSON(pts []experiments.FuseSweepPoint) error {
	recs := make([]fuseSweepRecord, len(pts))
	for i, p := range pts {
		recs[i] = fuseSweepRecord{
			Benchmark:           "fusesweep",
			Net:                 p.Net,
			Batch:               p.Batch,
			Threads:             p.Threads,
			NsPerOp:             p.FusedNsPerImage,
			UnfusedNsPerOp:      p.UnfusedNsPerImage,
			FusedSpeedupX:       p.SpeedupX,
			Instructions:        p.Instructions,
			UnfusedInstructions: p.UnfusedInstructions,
			FusedEpilogues:      p.FusedEpilogues,
			FusedConversions:    p.FusedConversions,
			PeakBytes:           p.PeakBytes,
			UnfusedPeakBytes:    p.UnfusedPeakBytes,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// gemmSweepRecord is one machine-readable raw-GEMM measurement:
// kernel × microkernel variant × square size, min-of-reps wall clock.
// Variant is "avx2" or "go" for the packed family (which dispatches
// through the SIMD switch) and "go" for the always-pure-Go kernels.
// CI archives these per commit — from both the SIMD and purego legs —
// so each variant's GFLOP/s trajectory (and the avx2/go ratio) is
// diffable across the project's history.
type gemmSweepRecord struct {
	Benchmark string  `json:"benchmark"`
	Kernel    string  `json:"kernel"`
	Variant   string  `json:"variant"`
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Threads   int     `json:"threads"`
	Reps      int     `json:"reps"`
	MinNs     float64 `json:"min_ns"`
	GFLOPS    float64 `json:"gflops"`
}

// writeGemmSweepJSON emits the GEMM sweep as one JSON array of records.
func writeGemmSweepJSON(pts []experiments.GemmSweepPoint, threads int) error {
	recs := make([]gemmSweepRecord, len(pts))
	for i, p := range pts {
		recs[i] = gemmSweepRecord{
			Benchmark: "gemmsweep",
			Kernel:    p.Kernel,
			Variant:   p.Variant,
			M:         p.M, N: p.N, K: p.K,
			Threads: threads,
			Reps:    p.Reps,
			MinNs:   p.MinNs,
			GFLOPS:  p.GFLOPS,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// dumpProgram compiles one network's plan under the chosen strategy
// and prints the executable Program IR with its static memory plan.
func dumpProgram(netName, strategy string, threads int) error {
	g, err := models.Build(netName)
	if err != nil {
		return err
	}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: threads}
	builders := map[string]func() (*selector.Plan, error){
		"pbqp":         func() (*selector.Plan, error) { return selector.Select(g, opts) },
		"baseline":     func() (*selector.Plan, error) { return selector.Baseline(g, opts) },
		"local-opt":    func() (*selector.Plan, error) { return selector.LocalOptimal(g, tensor.CHW, opts) },
		"no-edge-cost": func() (*selector.Plan, error) { return selector.NoEdgeCost(g, opts) },
		"mkldnn":       func() (*selector.Plan, error) { return selector.MKLDNNProxy(g, opts) },
		"armcl":        func() (*selector.Plan, error) { return selector.ARMCLProxy(g, opts) },
		"caffe":        func() (*selector.Plan, error) { return selector.CaffeProxy(g, opts) },
	}
	families := map[string]conv.Family{
		"direct": conv.FamilyDirect, "im2": conv.FamilyIm2, "kn2": conv.FamilyKn2,
		"winograd": conv.FamilyWinograd, "fft": conv.FamilyFFT,
	}
	build, ok := builders[strategy]
	if !ok {
		fam, okf := families[strategy]
		if !okf {
			names := make([]string, 0, len(builders)+len(families))
			for n := range builders {
				names = append(names, n)
			}
			for n := range families {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown strategy %q (have %s)", strategy, strings.Join(names, ", "))
		}
		build = func() (*selector.Plan, error) { return selector.FamilyBest(g, fam, opts) }
	}
	plan, err := build()
	if err != nil {
		return err
	}
	prog, err := program.CompileBatch(plan, 1)
	if err != nil {
		return err
	}
	fmt.Print(prog.Source())
	return nil
}

// validateNet rejects unknown -net values up front, listing every
// buildable network so a typo fails before minutes of sweeping.
func validateNet(name string) error {
	known := append(models.Names(), models.DemoNames()...)
	for _, n := range known {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown -net %q (have %s)", name, strings.Join(known, ", "))
}

// parseBatches parses the -batch flag's comma-separated size list.
func parseBatches(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-batch: %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-batch: empty size list")
	}
	return out, nil
}

func figure(title string, gen func() ([]*experiments.NetworkResult, error)) func() error {
	return func() error {
		nrs, err := gen()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure(title, nrs))
		return nil
	}
}
