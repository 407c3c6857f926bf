package pbqpdnn_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation section, plus ablations for the design choices
// DESIGN.md calls out. Speedups and solve times are attached as custom
// benchmark metrics so `go test -bench` output reads like the paper's
// figures:
//
//	go test -bench=Fig5 -benchmem        # Figure 5 series
//	go test -bench=Table2                # Table 2 rows
//	go test -bench=Ablation              # design-choice ablations
//	DNNBENCH_VERBOSE=1 go test -bench=.  # also print the rendered rows

import (
	"fmt"
	"os"
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/experiments"
	"pbqpdnn/internal/pbqp"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

var verbose = os.Getenv("DNNBENCH_VERBOSE") != ""

// benchFigure runs one whole-network figure grid, attaching each
// strategy's speedup as a metric on a per-network sub-benchmark.
func benchFigure(b *testing.B, gen func() ([]*experiments.NetworkResult, error)) {
	nrs, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	for _, nr := range nrs {
		nr := nr
		b.Run(nr.Network, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Regenerate to time the full pipeline (profiling +
				// PBQP + legalization for every strategy).
				if _, err := experiments.WholeNetwork(nr.Network, machineOf(nr.Machine), nr.Threads); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range nr.Results {
				b.ReportMetric(r.Speedup, r.Strategy+"-x")
			}
			if verbose {
				fmt.Print(experiments.FormatNetworkResult(nr))
			}
		})
	}
}

func machineOf(name string) cost.Machine {
	if name == cost.CortexA57.Name {
		return cost.CortexA57
	}
	return cost.IntelHaswell
}

// BenchmarkFig5IntelST regenerates Figure 5 (single-threaded Intel).
func BenchmarkFig5IntelST(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFig6IntelMT regenerates Figure 6 (multithreaded Intel).
func BenchmarkFig6IntelMT(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFig7aARMST regenerates Figure 7a (single-threaded ARM).
func BenchmarkFig7aARMST(b *testing.B) { benchFigure(b, experiments.Figure7a) }

// BenchmarkFig7bARMMT regenerates Figure 7b (multithreaded ARM).
func BenchmarkFig7bARMMT(b *testing.B) { benchFigure(b, experiments.Figure7b) }

// benchTable runs a Table 2/3 regeneration, reporting each cell in
// model milliseconds.
func benchTable(b *testing.B, gen func() ([]experiments.TableRow, error), title string) {
	rows, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := gen(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		prefix := fmt.Sprintf("%s-%s-", r.Threaded, r.Network)
		b.ReportMetric(r.Sum2D, prefix+"sum2d-ms")
		b.ReportMetric(r.LocalOpt, prefix+"lopt-ms")
		b.ReportMetric(r.PBQP, prefix+"pbqp-ms")
		b.ReportMetric(r.Caffe, prefix+"caffe-ms")
	}
	if verbose {
		fmt.Print(experiments.FormatTable(title, rows))
	}
}

// BenchmarkTable2Intel regenerates Table 2 (Intel absolute times).
func BenchmarkTable2Intel(b *testing.B) { benchTable(b, experiments.Table2, "Table 2") }

// BenchmarkTable3ARM regenerates Table 3 (ARM absolute times).
func BenchmarkTable3ARM(b *testing.B) { benchTable(b, experiments.Table3, "Table 3") }

// BenchmarkTable1Traits regenerates the qualitative family-traits
// table.
func BenchmarkTable1Traits(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(cost.IntelHaswell)
	}
	if verbose {
		fmt.Print(experiments.FormatTable1(rows))
	}
}

// BenchmarkFig2Example solves the paper's worked PBQP example.
func BenchmarkFig2Example(b *testing.B) {
	var r experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2()
	}
	b.ReportMetric(r.NodeOnlyCost, "node-only-cost")
	b.ReportMetric(r.FullCost, "full-cost")
}

// BenchmarkFig4Selections regenerates the AlexNet selection maps.
func BenchmarkFig4Selections(b *testing.B) {
	var intel, arm []experiments.Figure4Selection
	var err error
	for i := 0; i < b.N; i++ {
		intel, arm, err = experiments.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	wino2D := 0
	for _, r := range intel {
		if r.Wino2D {
			wino2D++
		}
	}
	b.ReportMetric(float64(wino2D), "intel-2d-layers")
	if verbose {
		fmt.Print(experiments.FormatFigure4(intel, arm))
	}
}

// BenchmarkSolverOverhead times the PBQP solve per network (§5.4: under
// a second each, optimal in every case).
func BenchmarkSolverOverhead(b *testing.B) {
	for _, name := range models.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			g, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 4}
			var plan *selector.Plan
			for i := 0; i < b.N; i++ {
				plan, err = selector.Select(g, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(plan.SolveTime.Seconds()*1e3, "solve-ms")
			if !plan.Optimal {
				b.Fatal("solver failed to prove optimality")
			}
		})
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationEdgeCosts compares full PBQP against the
// no-edge-cost selection (§5.8): the metric is the slowdown factor
// incurred by ignoring layout-transformation costs during selection.
func BenchmarkAblationEdgeCosts(b *testing.B) {
	for _, name := range []string{"alexnet", "googlenet"} {
		name := name
		b.Run(name, func(b *testing.B) {
			g, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			opts := selector.Options{Prof: cost.NewModel(cost.CortexA57), Threads: 4}
			var full, noEdge *selector.Plan
			for i := 0; i < b.N; i++ {
				if full, err = selector.Select(g, opts); err != nil {
					b.Fatal(err)
				}
				if noEdge, err = selector.NoEdgeCost(g, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(noEdge.TotalCost()/full.TotalCost(), "ignore-dt-slowdown-x")
		})
	}
}

// BenchmarkAblationSolverMode compares the RN heuristic against exact
// branch-and-bound on the largest network.
func BenchmarkAblationSolverMode(b *testing.B) {
	g, err := models.Build("googlenet")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		m    pbqp.Mode
	}{{"heuristic", pbqp.Heuristic}, {"exact", pbqp.Exact}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 4, Mode: mode.m}
			var plan *selector.Plan
			for i := 0; i < b.N; i++ {
				if plan, err = selector.Select(g, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(plan.TotalCost()*1e3, "predicted-ms")
		})
	}
}

// BenchmarkAblationSparsity quantifies the §8 sparsity extension: the
// metric is the predicted gain from letting the selector switch to
// sparse primitives at 99% kernel sparsity.
func BenchmarkAblationSparsity(b *testing.B) {
	build := func(sparsity float64) *dnn.Graph {
		bld, x := dnn.NewBuilder("sparse-probe", 128, 28, 28)
		x = bld.Conv(x, "c1", 128, 3, 1, 1)
		g := func() *dnn.Graph { bld.Softmax(x, "sm"); return bld.Graph() }()
		g.Layers[g.ConvLayers()[0]].Conv.Sparsity = sparsity
		return g
	}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 1}
	var dense, sparse *selector.Plan
	var err error
	for i := 0; i < b.N; i++ {
		if dense, err = selector.Select(build(0), opts); err != nil {
			b.Fatal(err)
		}
		if sparse, err = selector.Select(build(0.99), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dense.TotalCost()/sparse.TotalCost(), "sparsity-gain-x")
}

// BenchmarkExtSparsitySweep regenerates the §8 sparsity sweep,
// reporting the crossover gain at the highest sparsity level.
func BenchmarkExtSparsitySweep(b *testing.B) {
	var pts []experiments.SparsityPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.SparsitySweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.SpeedupX, "gain-at-99pct-x")
	if verbose {
		fmt.Print(experiments.FormatSparsitySweep(pts))
	}
}

// BenchmarkExtMinibatchSweep regenerates the §8 minibatch sweep,
// reporting batch-16 per-image amortization versus batch-1.
func BenchmarkExtMinibatchSweep(b *testing.B) {
	var pts []experiments.MinibatchPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.MinibatchSweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].PerImageMS/pts[len(pts)-1].PerImageMS, "amortization-x")
	if verbose {
		fmt.Print(experiments.FormatMinibatchSweep(pts))
	}
}

// BenchmarkRealExecution measures actual wall-clock execution of an
// optimized plan versus the sum2d baseline on the host machine, using
// the measurement profiler — the end-to-end "is the selection real"
// check on a small network.
func BenchmarkRealExecution(b *testing.B) {
	bld, x := dnn.NewBuilder("bench-net", 8, 32, 32)
	x = bld.Conv(x, "c1", 16, 3, 1, 1)
	x = bld.ReLU(x, "r1")
	x = bld.Conv(x, "c2", 16, 3, 1, 1)
	x = bld.MaxPool(x, "p1", 2, 2, 0)
	x = bld.Conv(x, "c3", 24, 5, 1, 2)
	g := func() *dnn.Graph { bld.Softmax(x, "sm"); return bld.Graph() }()
	w := exec.NewWeights(g)
	in := tensor.New(tensor.CHW, 8, 32, 32)
	in.FillRandom(7)
	opts := selector.Options{Prof: cost.NewMeasure(3), Threads: 1}
	plan, err := selector.Select(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	base, err := selector.Baseline(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pbqp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(plan, in, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum2d", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(base, in, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrimitiveKernels times a representative primitive from each
// family on a mid-sized layer — the microbenchmark layer under all
// whole-network numbers.
func BenchmarkPrimitiveKernels(b *testing.B) {
	s := conv.Scenario{C: 16, H: 28, W: 28, Stride: 1, K: 3, M: 16, Pad: 1}
	lib := conv.Library()
	k := conv.NewKernel(s.M, s.C, s.K)
	k.FillRandom(1)
	for _, name := range []string{"sum2d", "direct-mchw", "im2col-blk", "kn2row-ab",
		"wino2d-m4-k3-vf8", "fft1d-pre"} {
		p, err := conv.ByName(lib, name)
		if err != nil {
			b.Fatal(err)
		}
		in := tensor.New(p.In, s.C, s.H, s.W)
		in.FillRandom(2)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Run(in, k, s, 1)
			}
		})
	}
}

// BenchmarkLayoutTransforms times every direct transform routine on a
// GoogleNet-sized tensor.
func BenchmarkLayoutTransforms(b *testing.B) {
	for _, tr := range tensor.DirectTransforms() {
		tr := tr
		src := tensor.New(tr.From, 64, 56, 56)
		src.FillRandom(3)
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Run(src)
			}
		})
	}
}
