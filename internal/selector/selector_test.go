package selector

import (
	"math"
	"strings"
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/pbqp"
	"pbqpdnn/internal/tensor"
)

func intelOpts(threads int) Options {
	return Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: threads}
}

func armOpts(threads int) Options {
	return Options{Prof: cost.NewModel(cost.CortexA57), Threads: threads}
}

func mustNet(t *testing.T, name string) *dnn.Graph {
	t.Helper()
	g, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkLegal asserts the plan's structural soundness: every conv layer
// has a primitive supporting its scenario, and every edge is
// layout-consistent after conversions.
func checkLegal(t *testing.T, plan *Plan) {
	t.Helper()
	net := plan.Net
	for _, id := range net.ConvLayers() {
		p := plan.Primitives[id]
		if p == nil {
			t.Fatalf("layer %q has no primitive", net.Layers[id].Name)
		}
		if !p.Supports(net.Layers[id].Conv) {
			t.Fatalf("layer %q: %s does not support %s", net.Layers[id].Name, p.Name, net.Layers[id].Conv)
		}
		if plan.Layouts[id] != p.Out {
			t.Fatalf("layer %q: plan layout %s != primitive out %s", net.Layers[id].Name, plan.Layouts[id], p.Out)
		}
	}
	for _, e := range net.Edges() {
		from := plan.Layouts[e[0]]
		var to tensor.Layout
		if p := plan.Primitives[e[1]]; p != nil {
			to = p.In
		} else {
			to = plan.Layouts[e[1]]
		}
		chain := plan.Conversions[e]
		cur := from
		for _, tr := range chain {
			if tr.From != cur {
				t.Fatalf("edge %v: broken chain at %s (have %s)", e, tr.Name, cur)
			}
			cur = tr.To
		}
		if cur != to {
			t.Fatalf("edge %v: ends at %s, consumer wants %s", e, cur, to)
		}
	}
}

func TestSelectAlexNetIsLegalAndOptimal(t *testing.T) {
	net := mustNet(t, "alexnet")
	plan, err := Select(net, intelOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, plan)
	if !plan.Optimal {
		t.Error("AlexNet chain should be solved provably optimally (paper §5.4)")
	}
	if plan.TotalCost() <= 0 {
		t.Error("plan must have positive predicted cost")
	}
}

func TestSelectGoogleNetIsLegalAndOptimal(t *testing.T) {
	net := mustNet(t, "googlenet")
	plan, err := Select(net, intelOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, plan)
	// The paper reports the solver found the optimum for every network;
	// inception DAGs reduce fully via RI/RII.
	if !plan.Optimal {
		t.Error("GoogleNet should be solved provably optimally")
	}
	if plan.SolveTime.Seconds() >= 1 {
		t.Errorf("solve took %v, paper requires < 1s (§5.4)", plan.SolveTime)
	}
}

// TestPBQPBeatsEveryBaseline is the paper's headline property: the
// global optimum is at least as good as every other strategy, on every
// platform and thread count.
func TestPBQPBeatsEveryBaseline(t *testing.T) {
	for _, netName := range []string{"alexnet", "vgg-b", "googlenet"} {
		net := mustNet(t, netName)
		for _, opts := range []Options{intelOpts(1), intelOpts(4), armOpts(1), armOpts(4)} {
			best, err := Select(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			rivals := map[string]*Plan{}
			for _, fam := range conv.Families() {
				if fam == conv.FamilySum2D {
					continue
				}
				p, err := FamilyBest(net, fam, opts)
				if err != nil {
					t.Fatal(err)
				}
				rivals[fam.String()] = p
			}
			if p, err := LocalOptimal(net, tensor.CHW, opts); err == nil {
				rivals["local-opt"] = p
			} else {
				t.Fatal(err)
			}
			if p, err := NoEdgeCost(net, opts); err == nil {
				rivals["no-edge"] = p
			} else {
				t.Fatal(err)
			}
			if p, err := Baseline(net, opts); err == nil {
				rivals["sum2d"] = p
			} else {
				t.Fatal(err)
			}
			for name, r := range rivals {
				checkLegal(t, r)
				if best.TotalCost() > r.TotalCost()*(1+1e-9) {
					t.Errorf("%s/%s threads=%d: PBQP %g worse than %s %g",
						netName, opts.Prof.(*cost.Model).M.Name, opts.Threads,
						best.TotalCost(), name, r.TotalCost())
				}
			}
		}
	}
}

// TestFigure4SelectionShape reproduces the qualitative content of the
// paper's Figure 4 (multithreaded AlexNet selections): the first layer
// (K=11, strided) goes to the im2 family on both platforms; the
// remaining four layers all go to Winograd; Intel selects 2D Winograd
// variants while ARM mostly selects the low-memory 1D variants; and the
// vector factors match the platforms' SIMD widths.
func TestFigure4SelectionShape(t *testing.T) {
	net := mustNet(t, "alexnet")
	convs := net.ConvLayers()

	// Figure 4 was measured against the paper's stock-BLAS backend; the
	// packed register-tiled variants added later out-price Winograd and
	// (correctly) shift selections — that tuned-backend story lives in
	// EXPERIMENTS.md. This fixture pins the paper's library, so the
	// tuned -pack variants sit out.
	stock := func(opts Options) Options {
		for _, p := range conv.Library() {
			if !strings.HasSuffix(p.Name, "-pack") {
				opts.Lib = append(opts.Lib, p)
			}
		}
		return opts
	}

	intelPlan, err := Select(net, stock(intelOpts(4)))
	if err != nil {
		t.Fatal(err)
	}
	armPlan, err := Select(net, stock(armOpts(4)))
	if err != nil {
		t.Fatal(err)
	}

	for _, plan := range []*Plan{intelPlan, armPlan} {
		if fam := plan.Primitives[convs[0]].Family; fam != conv.FamilyIm2 {
			t.Errorf("conv1 selected %s family, want im2 (Figure 4)", fam)
		}
		for i, id := range convs[1:] {
			if fam := plan.Primitives[id].Family; fam != conv.FamilyWinograd {
				t.Errorf("conv%d selected %s (%s), want winograd (Figure 4)",
					i+2, plan.Primitives[id].Name, fam)
			}
		}
	}

	intel2D, arm1D := 0, 0
	for _, id := range convs[1:] {
		ip, ap := intelPlan.Primitives[id], armPlan.Primitives[id]
		if ip.Wino2D {
			intel2D++
		}
		if !ap.Wino2D {
			arm1D++
		}
		if ip.VF != 8 {
			t.Errorf("Intel selection %s has VF%d, want VF8 (AVX2)", ip.Name, ip.VF)
		}
		if ap.VF != 4 {
			t.Errorf("ARM selection %s has VF%d, want VF4 (NEON)", ap.Name, ap.VF)
		}
	}
	if intel2D != 4 {
		t.Errorf("Intel selected %d/4 2D winograd layers, want 4 (Figure 4)", intel2D)
	}
	if arm1D < 2 {
		t.Errorf("ARM selected %d/4 1D winograd layers, want majority (Figure 4: 3 of 4)", arm1D)
	}
}

func TestBaselineIsAllSum2D(t *testing.T) {
	net := mustNet(t, "alexnet")
	plan, err := Baseline(net, intelOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range plan.Primitives {
		if p.Name != "sum2d" {
			t.Errorf("layer %d: baseline picked %s", id, p.Name)
		}
	}
	if plan.EdgeCost != 0 {
		t.Errorf("baseline should need no conversions, EdgeCost=%g", plan.EdgeCost)
	}
	if plan.Threads != 1 {
		t.Error("baseline must be single-threaded")
	}
}

func TestLocalOptimalStaysInLayout(t *testing.T) {
	net := mustNet(t, "googlenet")
	plan, err := LocalOptimal(net, tensor.CHW, intelOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, plan)
	for id, p := range plan.Primitives {
		if p.In != tensor.CHW || p.Out != tensor.CHW {
			t.Errorf("layer %d: %s leaves the canonical layout", id, p.Name)
		}
	}
	if plan.EdgeCost != 0 {
		t.Errorf("canonical strategy has no DT costs, got %g", plan.EdgeCost)
	}
}

// TestNoEdgeCostAblation: ignoring DT costs during selection must never
// beat the full formulation, and on DAG-shaped GoogleNet it must be
// strictly worse — §5.8's experimental point.
func TestNoEdgeCostAblation(t *testing.T) {
	net := mustNet(t, "googlenet")
	opts := armOpts(4)
	full, err := Select(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	noEdge, err := NoEdgeCost(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, noEdge)
	if noEdge.TotalCost() < full.TotalCost() {
		t.Errorf("no-edge ablation %g beat full PBQP %g", noEdge.TotalCost(), full.TotalCost())
	}
}

func TestVendorProxies(t *testing.T) {
	net := mustNet(t, "alexnet")
	intel := intelOpts(4)
	caffe, err := CaffeProxy(net, intel)
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, caffe)
	mkl, err := MKLDNNProxy(net, intel)
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, mkl)
	armcl, err := ARMCLProxy(net, armOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, armcl)

	pbqpPlan, err := Select(net, intel)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: PBQP beats the vendor proxies, and the
	// vendor library beats naive Caffe.
	if pbqpPlan.TotalCost() >= mkl.TotalCost() {
		t.Errorf("PBQP (%g) should beat mkldnn proxy (%g)", pbqpPlan.TotalCost(), mkl.TotalCost())
	}
	if mkl.TotalCost() >= caffe.TotalCost() {
		t.Errorf("mkldnn proxy (%g) should beat caffe proxy (%g)", mkl.TotalCost(), caffe.TotalCost())
	}
}

func TestSelectWithExactModeAgrees(t *testing.T) {
	net := mustNet(t, "alexnet")
	opts := intelOpts(4)
	h, err := Select(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Mode = pbqp.Exact
	e, err := Select(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.TotalCost() - e.TotalCost(); d > 1e-12 || d < -1e-12 {
		t.Errorf("heuristic %g != exact %g on a chain network", h.TotalCost(), e.TotalCost())
	}
}

// TestSparsitySelection: the §8 extension — with a highly sparse
// kernel, the selector switches some layer to a sparse primitive.
func TestSparsitySelection(t *testing.T) {
	b, x := dnn.NewBuilder("sparse-net", 64, 28, 28)
	x = b.Conv(x, "c1", 64, 3, 1, 1)
	g := func() *dnn.Graph { b.Softmax(x, "sm"); return b.Graph() }()
	id := g.ConvLayers()[0]
	opts := intelOpts(1)

	dense, err := Select(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Primitives[id].Sparse {
		t.Error("dense scenario should not pick a sparse primitive")
	}

	g.Layers[id].Conv.Sparsity = 0.95
	sparse, err := Select(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Primitives[id].Sparse {
		t.Errorf("95%% sparse kernel should select a sparse primitive, got %s",
			sparse.Primitives[id].Name)
	}
}

// TestMinibatchSelection: selecting at a minibatch size scales the
// predicted cost and yields a legal plan.
func TestMinibatchSelection(t *testing.T) {
	b, x := dnn.NewBuilder("batch-net", 32, 28, 28)
	x = b.Conv(x, "c1", 32, 3, 1, 1)
	g := func() *dnn.Graph { b.Softmax(x, "sm"); return b.Graph() }()
	b1, err := Select(g, intelOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SelectBatch(g, 8, intelOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, plan)
	if plan.TotalCost() <= b1.TotalCost() {
		t.Errorf("batch-8 plan cost %g should exceed the batch-1 cost %g", plan.TotalCost(), b1.TotalCost())
	}
}

// TestVendorProfilerKeepsBatchPrices: the vendor tax wraps the inner
// profiler's batched price — amortization included — rather than
// pricing a batch as n separate images, and the proxy claims no fusion
// credit.
func TestVendorProfilerKeepsBatchPrices(t *testing.T) {
	mo := cost.NewModel(cost.IntelHaswell)
	v := vendorProfiler{inner: mo}
	s := conv.Scenario{C: 160, H: 7, W: 7, Stride: 1, K: 3, M: 320, Pad: 1}
	for _, name := range []string{"wino2d-m4-k3-vf8", "im2row-pack", "direct-mchw"} {
		p, err := conv.ByName(conv.Library(), name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := v.Primitive(p, s, 2, 8), mo.Primitive(p, s, 2, 8)*vendorMTTax; got != want {
			t.Errorf("%s: vendor batch-8 price %g, want the model's %g × %g", name, got, mo.Primitive(p, s, 2, 8), vendorMTTax)
		}
		if got := v.EpilogueSaving(p, s, 8); got != 0 {
			t.Errorf("%s: vendor proxy claims epilogue saving %g", name, got)
		}
	}
	tr := tensor.DirectTransforms()[0]
	if got, want := v.Transform(tr, 64, 14, 14, 8), mo.Transform(tr, 64, 14, 14, 8); got != want {
		t.Errorf("vendor batch-8 transform %g, want the model's %g", got, want)
	}
}

// countingProfiler counts Transform pricing calls to pin the DT-cache
// sharing between PBQP assembly and legalization.
type countingProfiler struct {
	inner      cost.Profiler
	transforms map[[4]int]int // (from, to, c, h·w) → calls — keyed per (transform, shape)
}

func (c *countingProfiler) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	return c.inner.Primitive(p, s, threads, n)
}

func (c *countingProfiler) Transform(tr tensor.Transform, cc, h, w, n int) float64 {
	c.transforms[[4]int{int(tr.From), int(tr.To), cc, h*1000 + w}]++
	return c.inner.Transform(tr, cc, h, w, n)
}

func (c *countingProfiler) EpilogueSaving(p *conv.Primitive, s conv.Scenario, n int) float64 {
	return c.inner.EpilogueSaving(p, s, n)
}

// TestDTCacheSharedAcrossBuildAndFinish: the DT closures built while
// assembling the PBQP instance are reused during legalization, so every
// (transform, shape) pair is priced exactly once per selection run.
func TestDTCacheSharedAcrossBuildAndFinish(t *testing.T) {
	g := mustNet(t, "alexnet")
	prof := &countingProfiler{inner: cost.NewModel(cost.IntelHaswell), transforms: map[[4]int]int{}}
	if _, err := Select(g, Options{Prof: prof, Threads: 4}); err != nil {
		t.Fatal(err)
	}
	if len(prof.transforms) == 0 {
		t.Fatal("profiler saw no transform pricing at all")
	}
	for key, n := range prof.transforms {
		if n > 1 {
			t.Errorf("transform/shape %v priced %d times; the DT cache should be shared", key, n)
		}
	}
}

// TestSelectBatchRecordsBucket: per-bucket selection stamps the plan
// with its batch, stays legal, and CheckBatch ties it to the bucket.
func TestSelectBatchRecordsBucket(t *testing.T) {
	g := mustNet(t, "smallnet")
	plan, err := SelectBatch(g, 8, intelOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, plan)
	if plan.Batch != 8 {
		t.Fatalf("Plan.Batch = %d, want 8", plan.Batch)
	}
	if err := plan.CheckBatch(8); err != nil {
		t.Errorf("CheckBatch(8) on a batch-8 plan: %v", err)
	}
	if err := plan.CheckBatch(4); err == nil {
		t.Error("CheckBatch(4) on a batch-8 plan should fail")
	}
	if plan.CostPerImage() <= 0 || plan.CostPerImage() >= plan.TotalCost() {
		t.Errorf("CostPerImage %g should divide TotalCost %g by the batch", plan.CostPerImage(), plan.TotalCost())
	}

	// A batch-agnostic plan executes at any bucket.
	b1, err := Select(g, intelOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if b1.Batch != 1 {
		t.Fatalf("Select plan Batch = %d, want 1", b1.Batch)
	}
	for _, n := range []int{1, 3, 8} {
		if err := b1.CheckBatch(n); err != nil {
			t.Errorf("batch-1 plan CheckBatch(%d): %v", n, err)
		}
	}
	if _, err := SelectBatch(g, 0, intelOpts(1)); err == nil {
		t.Error("SelectBatch(0) should be rejected")
	}
}

// TestSelectBatchChangesPlan: the point of per-bucket selection — the
// batch-8 PBQP instance prices genuinely different costs, so its plan
// predicts a cheaper whole-batch execution than running the batch-1
// plan's choices 8 times, and on GoogLeNet (whose layer-shape spread
// puts several layers near the im2row/wino margin) at least one layer
// switches primitive under the analytic model alone. Measured
// (calibrated-table) selection switches more — that path is exercised
// by the serve calibration tests and the benchmark's calibrated plans.
func TestSelectBatchChangesPlan(t *testing.T) {
	for _, name := range []string{"googlenet", "resnet-18"} {
		g := mustNet(t, name)
		opts := intelOpts(1)
		b1, err := Select(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := SelectBatch(g, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		switched := 0
		for _, id := range g.ConvLayers() {
			if b1.Primitives[id].Name != b8.Primitives[id].Name {
				switched++
			}
		}
		t.Logf("%s: %d of %d conv layers switch primitive at batch 8", name, switched, len(g.ConvLayers()))
		if name == "googlenet" && switched == 0 {
			t.Error("googlenet: batch-8 plan selects identical primitives to batch-1; batch amortization is not reaching the PBQP instance")
		}
		if b8.TotalCost() >= 8*b1.TotalCost() {
			t.Errorf("%s: batch-8 plan cost %g should beat 8 × batch-1 cost %g", name, b8.TotalCost(), 8*b1.TotalCost())
		}
	}
}

// TestSelectBatchPrunesUnpricedCandidates: selection over a top-K
// calibrated table must confine the PBQP instance to the measured
// candidates (missing entries are +Inf, not solver inputs) and still
// produce a legal plan.
func TestSelectBatchPrunesUnpricedCandidates(t *testing.T) {
	g := mustNet(t, "micronet")
	mo := cost.NewModel(cost.IntelHaswell)
	tab := cost.NewTable("test-host", 1)
	tab.AddNetTopK(g, conv.Library(), mo, mo, []int{1, 2}, 3)
	for _, b := range []int{1, 2} {
		plan, err := SelectBatch(g, b, Options{Prof: tab, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkLegal(t, plan)
		for _, id := range g.ConvLayers() {
			s := g.Layers[id].Conv
			if c := tab.Primitive(plan.Primitives[id], s, 1, b); c <= 0 || c != c || c > 1e9 {
				t.Errorf("batch %d: selected primitive %s has unpriced cost %g", b, plan.Primitives[id].Name, c)
			}
		}
	}
}

// TestPlanCostBreakdowns: the per-layer and per-edge cost maps the
// observability layer joins against must be an exact partition of the
// aggregate NodeCost/EdgeCost — for plain selection, for batch-aware
// selection, and through the vendor proxies' overhead scaling.
func TestPlanCostBreakdowns(t *testing.T) {
	net := mustNet(t, "alexnet")
	opts := intelOpts(4)
	plans := map[string]*Plan{}
	var err error
	if plans["select"], err = Select(net, opts); err != nil {
		t.Fatal(err)
	}
	if plans["batch8"], err = SelectBatch(net, 8, opts); err != nil {
		t.Fatal(err)
	}
	if plans["caffe"], err = CaffeProxy(net, opts); err != nil {
		t.Fatal(err)
	}
	if plans["mkldnn"], err = MKLDNNProxy(net, opts); err != nil {
		t.Fatal(err)
	}
	for name, plan := range plans {
		if len(plan.LayerCost) != len(net.ConvLayers()) {
			t.Errorf("%s: LayerCost has %d entries, want one per conv layer (%d)",
				name, len(plan.LayerCost), len(net.ConvLayers()))
		}
		var nodeSum float64
		for id, c := range plan.LayerCost {
			if c < 0 {
				t.Errorf("%s: negative layer cost for %d", name, id)
			}
			nodeSum += c
		}
		if rel := math.Abs(nodeSum-plan.NodeCost) / plan.NodeCost; rel > 1e-9 {
			t.Errorf("%s: LayerCost sums to %g, NodeCost is %g", name, nodeSum, plan.NodeCost)
		}
		var edgeSum float64
		for _, c := range plan.EdgeCosts {
			edgeSum += c
		}
		if math.Abs(edgeSum-plan.EdgeCost) > 1e-9*math.Max(1, plan.EdgeCost) {
			t.Errorf("%s: EdgeCosts sums to %g, EdgeCost is %g", name, edgeSum, plan.EdgeCost)
		}
		// The fusion credit must already be folded into the partition:
		// adding it back reproduces the raw primitive prices exactly, so
		// the credit is attributed to producer layers, never invented.
		// Vendor proxies model frameworks without epilogue fusion (their
		// wrapped profiler claims no savings), so only the PBQP plans
		// carry credit.
		if name == "caffe" || name == "mkldnn" {
			if plan.FusionCredit != 0 {
				t.Errorf("%s: vendor proxy claims fusion credit %g", name, plan.FusionCredit)
			}
			continue
		}
		if plan.FusionCredit <= 0 {
			t.Errorf("%s: no fusion credit on alexnet (every conv feeds a single relu)", name)
		}
		b := plan.Batch
		if b < 1 {
			b = 1
		}
		var raw float64
		for _, id := range net.ConvLayers() {
			raw += opts.Prof.Primitive(plan.Primitives[id], net.Layers[id].Conv, opts.Threads, b)
		}
		if rel := math.Abs(raw-(plan.NodeCost+plan.FusionCredit)) / raw; rel > 1e-9 {
			t.Errorf("%s: raw primitive prices sum to %g, NodeCost %g + FusionCredit %g diverges",
				name, raw, plan.NodeCost, plan.FusionCredit)
		}
	}
}
