package cost

import (
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/tensor"
)

func prim(t *testing.T, name string) *conv.Primitive {
	t.Helper()
	p, err := conv.ByName(conv.Library(), name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var vggLayer = conv.Scenario{C: 128, H: 56, W: 56, Stride: 1, K: 3, M: 256, Pad: 1}
var alexConv1 = conv.Scenario{C: 3, H: 227, W: 227, Stride: 4, K: 11, M: 96, Pad: 0}

func TestMachines(t *testing.T) {
	for _, m := range Machines() {
		if m.Cores != 4 {
			t.Errorf("%s: cores = %d, want 4 (both paper testbeds)", m.Name, m.Cores)
		}
		if m.PeakFlops(1) <= 0 || m.PeakFlops(4) != 4*m.PeakFlops(1) {
			t.Errorf("%s: peak flops inconsistent", m.Name)
		}
		if m.PeakFlops(0) != m.PeakFlops(1) || m.PeakFlops(99) != m.PeakFlops(4) {
			t.Errorf("%s: thread clamping wrong", m.Name)
		}
	}
	if IntelHaswell.VecWidth != 8 || CortexA57.VecWidth != 4 {
		t.Error("vector widths must match AVX2/NEON FP32")
	}
	if CortexA57.LLC >= IntelHaswell.LLC {
		t.Error("the embedded core must have the smaller cache (paper §4)")
	}
}

func TestModelBasicSanity(t *testing.T) {
	mo := NewModel(IntelHaswell)
	for _, p := range conv.Library() {
		for _, s := range []conv.Scenario{vggLayer, alexConv1} {
			if !p.Supports(s) {
				continue
			}
			c1 := mo.Primitive(p, s, 1, 1)
			c4 := mo.Primitive(p, s, 4, 1)
			if c1 <= 0 || c4 <= 0 {
				t.Fatalf("%s: non-positive cost", p.Name)
			}
			if c4 > c1*1.01 {
				t.Errorf("%s: 4-thread cost %g exceeds single-thread %g", p.Name, c4, c1)
			}
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	mo := NewModel(CortexA57)
	p := prim(t, "im2col-ab")
	if mo.Primitive(p, vggLayer, 2, 1) != mo.Primitive(p, vggLayer, 2, 1) {
		t.Error("model must be deterministic")
	}
}

// TestFastAlgorithmsWin pins Table 1's "time" column on a friendly K=3
// layer: Winograd < im2 < sum2d single-threaded on Intel.
func TestFastAlgorithmsWin(t *testing.T) {
	mo := NewModel(IntelHaswell)
	wino := mo.Primitive(prim(t, "wino2d-m4-k3-vf8"), vggLayer, 1, 1)
	im2 := mo.Primitive(prim(t, "im2col-blk"), vggLayer, 1, 1)
	sum := mo.Primitive(prim(t, "sum2d"), vggLayer, 1, 1)
	if !(wino < im2 && im2 < sum) {
		t.Errorf("expected wino (%g) < im2 (%g) < sum2d (%g)", wino, im2, sum)
	}
	// Speedup of the right order of magnitude (paper: up to ~10x ST).
	if r := sum / wino; r < 3 || r > 60 {
		t.Errorf("wino speedup vs sum2d = %.1f, outside plausible band", r)
	}
}

// TestFFTBadForSmallKernels pins Table 1's fft "small kernel" weakness:
// fft loses to im2 on K=3 but closes the gap dramatically on K=11.
func TestFFTBadForSmallKernels(t *testing.T) {
	mo := NewModel(IntelHaswell)
	fftP, im2P := prim(t, "fft1d-pre"), prim(t, "im2col-blk")
	k3 := vggLayer
	k11 := conv.Scenario{C: 64, H: 56, W: 56, Stride: 1, K: 11, M: 64, Pad: 5}
	ratio3 := mo.Primitive(fftP, k3, 1, 1) / mo.Primitive(im2P, k3, 1, 1)
	ratio11 := mo.Primitive(fftP, k11, 1, 1) / mo.Primitive(im2P, k11, 1, 1)
	if ratio3 < 1 {
		t.Errorf("fft should lose on K=3 (ratio %.2f)", ratio3)
	}
	if ratio11 >= ratio3 {
		t.Errorf("fft should gain ground as K grows: K3 ratio %.2f, K11 ratio %.2f", ratio3, ratio11)
	}
}

// TestVectorFactorMatchesPlatform pins the Figure 4 mechanism: VF8
// Winograd wins on 8-wide Haswell, VF4 on 4-wide NEON.
func TestVectorFactorMatchesPlatform(t *testing.T) {
	vf4, vf8 := prim(t, "wino2d-m4-k3-vf4"), prim(t, "wino2d-m4-k3-vf8")
	intel := NewModel(IntelHaswell)
	arm := NewModel(CortexA57)
	if intel.Primitive(vf8, vggLayer, 4, 1) >= intel.Primitive(vf4, vggLayer, 4, 1) {
		t.Error("Haswell should prefer the VF8 variant")
	}
	if arm.Primitive(vf4, vggLayer, 4, 1) >= arm.Primitive(vf8, vggLayer, 4, 1) {
		t.Error("Cortex-A57 should prefer the VF4 variant")
	}
}

// bestWino returns the cheapest Winograd primitive of the given
// dimensionality for scenario s — what the selector would see.
func bestWino(mo *Model, s conv.Scenario, twoD bool, threads int) float64 {
	best := 0.0
	found := false
	for _, p := range conv.Library() {
		if p.Family != conv.FamilyWinograd || p.Wino2D != twoD || !p.Supports(s) {
			continue
		}
		c := mo.Primitive(p, s, threads, 1)
		if !found || c < best {
			best, found = c, true
		}
	}
	return best
}

// TestARMPrefers1DWinogradMT pins the second Figure 4 mechanism: with
// four threads sharing the small ARM cache, the low-memory 1D Winograd
// family beats the 2D algorithm, while Intel's larger LLC keeps 2D
// ahead.
func TestARMPrefers1DWinogradMT(t *testing.T) {
	// AlexNet conv3-like layer, the shape Figure 4 shows.
	s := conv.Scenario{C: 256, H: 13, W: 13, Stride: 1, K: 3, M: 384, Pad: 1}
	arm := NewModel(CortexA57)
	if d1, d2 := bestWino(arm, s, false, 4), bestWino(arm, s, true, 4); d1 >= d2 {
		t.Errorf("ARM MT should prefer 1D winograd: 1d=%g 2d=%g", d1, d2)
	}
	intel := NewModel(IntelHaswell)
	if d1, d2 := bestWino(intel, s, false, 4), bestWino(intel, s, true, 4); d2 >= d1 {
		t.Errorf("Intel MT should prefer 2D winograd: 2d=%g 1d=%g", d2, d1)
	}
}

// TestKn2LowMemoryNiche pins kn2's Table 1 profile: less workspace than
// im2 and competitive on large-image layers.
func TestKn2LowMemoryNiche(t *testing.T) {
	mo := NewModel(CortexA57)
	big := conv.Scenario{C: 64, H: 112, W: 112, Stride: 1, K: 3, M: 64, Pad: 1}
	kn2 := mo.Primitive(prim(t, "kn2row-blk"), big, 1, 1)
	im2 := mo.Primitive(prim(t, "im2col-blk"), big, 1, 1)
	if kn2 > im2*1.5 {
		t.Errorf("kn2 should be competitive on large images: kn2=%g im2=%g", kn2, im2)
	}
}

func TestTransformCostScalesWithSize(t *testing.T) {
	mo := NewModel(IntelHaswell)
	tr := tensor.DirectTransforms()[0]
	small := mo.Transform(tr, 16, 28, 28, 1)
	large := mo.Transform(tr, 256, 56, 56, 1)
	if large <= small {
		t.Error("transform cost must grow with tensor size")
	}
	if small <= 0 {
		t.Error("transform cost must be positive")
	}
}

func TestTransformSlowerOnARM(t *testing.T) {
	tr := tensor.DirectTransforms()[0]
	if NewModel(CortexA57).Transform(tr, 64, 56, 56, 1) <= NewModel(IntelHaswell).Transform(tr, 64, 56, 56, 1) {
		t.Error("lower-bandwidth platform must pay more for transforms")
	}
}

// TestSparsityReducesCost: the future-work extension — a sparse
// primitive gets cheaper as kernel sparsity rises, a dense one doesn't.
func TestSparsityReducesCost(t *testing.T) {
	mo := NewModel(IntelHaswell)
	sp := prim(t, "im2col-sparse")
	dense := prim(t, "im2col-ab")
	s0 := vggLayer
	s9 := vggLayer
	s9.Sparsity = 0.9
	if mo.Primitive(sp, s9, 1, 1) >= mo.Primitive(sp, s0, 1, 1) {
		t.Error("sparse primitive should benefit from sparsity")
	}
	if mo.Primitive(dense, s9, 1, 1) != mo.Primitive(dense, s0, 1, 1) {
		t.Error("dense primitive cost should ignore sparsity")
	}
}

// TestMinibatchScalesCost: the other §8 extension. A batched im2col
// call amortizes no algorithmic setup, so its batch-8 price stays close
// to 8 images' worth.
func TestMinibatchScalesCost(t *testing.T) {
	mo := NewModel(IntelHaswell)
	p := prim(t, "im2col-ab")
	c1, c8 := mo.Primitive(p, vggLayer, 1, 1), mo.Primitive(p, vggLayer, 1, 8)
	if c8 < 6*c1 || c8 > 10*c1 {
		t.Errorf("batch-8 cost %g should be ≈8× batch-1 cost %g", c8, c1)
	}
}

// TestMeasureProfiler: the wall-clock profiler returns positive times
// for primitives with and without a batched entry point, and for a
// transform, at batch 1.
func TestMeasureProfiler(t *testing.T) {
	checkMeasure(t, NewMeasure(2), 1)
}

// TestMeasureBatch: the same through one code path at batch 3, where a
// primitive without a batched entry runs the per-image fallback.
func TestMeasureBatch(t *testing.T) {
	checkMeasure(t, NewMeasure(1), 3)
}

func checkMeasure(t *testing.T, me *Measure, n int) {
	t.Helper()
	s := conv.Scenario{C: 4, H: 12, W: 12, Stride: 1, K: 3, M: 4, Pad: 1}
	for _, name := range []string{"im2col-ab", "im2row-ab", "direct-mchw"} {
		if c := me.Primitive(prim(t, name), s, 1, n); c <= 0 {
			t.Errorf("%s at n=%d: measured cost %g must be positive", name, n, c)
		}
	}
	tr := tensor.DirectTransforms()[0]
	if c := me.Transform(tr, 4, 12, 12, n); c <= 0 {
		t.Errorf("transform at n=%d: measured cost %g must be positive", n, c)
	}
	if c := me.EpilogueSaving(prim(t, "im2row-ab"), s, n); c != 0 {
		t.Errorf("n=%d: measured epilogue saving %g, want 0 (none is measured)", n, c)
	}
}

// TestMeasureTimesBatchedCall: Measure prices the call the engine makes
// — conv.RunBatchInto, which binds a primitive's batched entry — at
// every batch size, batch 1 included, and never the allocating
// per-image Run.
func TestMeasureTimesBatchedCall(t *testing.T) {
	s := conv.Scenario{C: 2, H: 6, W: 6, Stride: 1, K: 3, M: 2, Pad: 1}
	for _, n := range []int{1, 3} {
		calls := 0
		fake := &conv.Primitive{
			Name: "fake-batched", Family: conv.FamilyIm2, In: tensor.CHW, Out: tensor.CHW,
			Run: func(*tensor.Tensor, *conv.Kernel, conv.Scenario, int) *tensor.Tensor {
				panic("per-image Run timed; the engine calls RunBatchInto")
			},
			RunBatch: func(dst, in *tensor.Batch, _ *conv.Kernel, _ conv.Scenario, _ int) {
				if in.N != n || dst.N != n {
					t.Errorf("RunBatch over %d→%d images, want %d", in.N, dst.N, n)
				}
				calls++
			},
		}
		me := &Measure{Reps: 4}
		me.Primitive(fake, s, 1, n)
		if calls != me.Reps {
			t.Errorf("n=%d: RunBatch called %d times, want Reps = %d", n, calls, me.Reps)
		}
	}
}

// TestEveryPrimitiveHasCalibration ensures no library entry silently
// falls through to a zero efficiency.
func TestEveryPrimitiveHasCalibration(t *testing.T) {
	for _, p := range conv.Library() {
		if e := baseEff(p); e <= 0 || e > 1 {
			t.Errorf("%s: baseEff = %v", p.Name, e)
		}
	}
	for _, tr := range tensor.DirectTransforms() {
		if f := transformFactor(tr); f < 1 {
			t.Errorf("%s: transform factor %v", tr.Name, f)
		}
	}
}

// TestBatchAmortization: a primitive with a real batched entry point
// amortizes its one-time work, so its batch-N cost is strictly less
// than N times its batch-1 cost — and the gap is widest for Winograd,
// whose kernel transform is the setup term. A primitive without a
// batched implementation executes through the per-image fallback and
// scales exactly linearly.
func TestBatchAmortization(t *testing.T) {
	mo := NewModel(IntelHaswell)
	const n = 8
	late := conv.Scenario{C: 160, H: 7, W: 7, Stride: 1, K: 3, M: 320, Pad: 1}

	wino := prim(t, "wino2d-m4-k3-vf8")
	if wino.RunBatch == nil {
		t.Fatal("wino2d-m4-k3-vf8 has no batched entry; test assumption broken")
	}
	w1, wN := mo.Primitive(wino, late, 1, 1), mo.Primitive(wino, late, 1, n)
	if wN >= float64(n)*w1 {
		t.Errorf("batched wino cost %g should amortize below %d × %g", wN, n, w1)
	}
	if wN <= w1 {
		t.Errorf("batched wino cost %g cannot be cheaper than one image %g", wN, w1)
	}

	direct := prim(t, "direct-mchw")
	if direct.RunBatch != nil {
		t.Fatal("direct-mchw grew a batched entry; update the fallback side of this test")
	}
	d1, dN := mo.Primitive(direct, late, 1, 1), mo.Primitive(direct, late, 1, n)
	if got, want := dN, float64(n)*d1; got != want {
		t.Errorf("fallback primitive batch cost %g, want exactly %d × %g = %g", got, n, d1, want)
	}

	tr := tensor.DirectTransforms()[0]
	tb := mo.Transform(tr, 64, 28, 28, n)
	lin := float64(n) * mo.Transform(tr, 64, 28, 28, 1)
	if tb >= lin {
		t.Errorf("batched transform %g should shave the per-call overhead off %g", tb, lin)
	}
}

// TestMeasureThreadsWired: the Threads field is the default budget when
// a call site passes threads < 1, and a cap otherwise — previously
// declared but never read.
func TestMeasureThreadsWired(t *testing.T) {
	me := &Measure{Reps: 1, Threads: 2}
	cases := []struct{ in, want int }{
		{0, 2},  // default: unset call sites inherit the cap
		{-1, 2}, // negative is unset too
		{1, 1},  // explicit requests below the cap pass through
		{2, 2},
		{5, 2}, // and above it are clamped
	}
	for _, c := range cases {
		if got := me.threadBudget(c.in); got != c.want {
			t.Errorf("Threads=2: threadBudget(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	uncapped := &Measure{Reps: 1}
	if got := uncapped.threadBudget(0); got != 1 {
		t.Errorf("Threads=0: threadBudget(0) = %d, want 1", got)
	}
	if got := uncapped.threadBudget(7); got != 7 {
		t.Errorf("Threads=0: threadBudget(7) = %d, want 7", got)
	}
}
