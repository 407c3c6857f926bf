package cost

import (
	"math"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/fft"
	"pbqpdnn/internal/tensor"
)

// Profiler prices primitives, layout transforms and epilogue fusion
// for an n-image minibatch; it is the cost source consumed by the
// selector (paper §3.1). Every method prices the whole batch in
// seconds, and n ≤ 1 means one image. The three shipped profilers (the
// analytic Model, the wall-clock Measure and the serialized Table) all
// price the batched call the engine makes at that n.
type Profiler interface {
	// Primitive returns the cost of executing p once over an n-image
	// batch of scenario s with the given thread count.
	Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64
	// Transform returns the cost of converting an n-image batch of
	// logical c×h×w tensors with one direct layout transform.
	Transform(tr tensor.Transform, c, h, w, n int) float64
	// EpilogueSaving returns the seconds saved per call by folding one
	// elementwise consumer (relu, residual add) into p's output
	// writeback instead of running it as a separate streaming pass over
	// the n-image output slab. Whether p can fuse at all is the
	// selector's check, not the profiler's.
	EpilogueSaving(p *conv.Primitive, s conv.Scenario, n int) float64
}

// Model is the analytic machine-model profiler. It is deterministic:
// the same (machine, primitive, scenario) triple always produces the
// same cost, which keeps the experiment harness reproducible.
type Model struct {
	M Machine
}

// NewModel returns an analytic profiler for the given machine.
func NewModel(m Machine) *Model { return &Model{M: m} }

// perCallOverhead is the fixed dispatch cost of one primitive call.
const perCallOverhead = 3e-6

// algOps estimates the arithmetic operation count of primitive p on
// scenario s. GEMM-based and direct families perform the full
// O(H'W'CK²M) work; Winograd and FFT are the "fast" algorithms whose
// operation counts genuinely shrink (paper §4).
func algOps(p *conv.Primitive, s conv.Scenario) float64 {
	oh, ow := float64(s.OutH()), float64(s.OutW())
	c, m := float64(s.C), float64(s.M)
	switch {
	case p.Family == conv.FamilyWinograd && p.Wino2D:
		wm, wr := float64(p.WinoM), float64(p.WinoR)
		t := wm + wr - 1
		tiles := math.Ceil(oh/wm) * math.Ceil(ow/wm)
		inputTrans := tiles * c * 4 * t * t * t
		pointwise := tiles * 2 * c * m * t * t
		outputTrans := tiles * m * 4 * wm * t * t
		kernelTrans := m * c * 2 * t * t * wr
		return inputTrans + pointwise + outputTrans + kernelTrans
	case p.Family == conv.FamilyWinograd:
		wm, wr := float64(p.WinoM), float64(p.WinoR)
		t := wm + wr - 1
		tilesX := math.Ceil(ow / wm)
		rows := oh
		inputTrans := rows * tilesX * c * wr * 2 * t * t
		pointwise := rows * tilesX * 2 * m * c * wr * t
		outputTrans := rows * tilesX * m * 2 * wm * t
		kernelTrans := m * c * wr * 2 * t * wr
		return inputTrans + pointwise + outputTrans + kernelTrans
	case p.Family == conv.FamilyFFT:
		n := float64(fft.NextPow2(s.W + 2*s.Pad + s.K - 1))
		lg := math.Log2(n)
		fwdRows := c * float64(s.H) * 5 * n * lg
		kernels := m * c * float64(s.K) * 5 * n * lg
		pointwise := m * oh * c * float64(s.K) * 8 * n
		inverse := m * oh * 5 * n * lg
		if p.Name == "fft1d-naive" {
			// Recomputes both spectra per (m,row,c,kh) quadruple.
			fwdRows = m * oh * c * float64(s.K) * 2 * 5 * n * lg
			kernels = 0
		}
		return fwdRows + kernels + pointwise + inverse
	default:
		ops := s.Flops()
		if p.Sparse && s.Sparsity > 0 {
			ops *= 1 - s.Sparsity
			ops += float64(s.M) * float64(s.C) * float64(s.K*s.K) * 2 // CSR build
		}
		return ops
	}
}

// vectorUtil returns the fraction of the machine's SIMD lanes a
// primitive with vector factor vf sustains. A VF wider than the machine
// is emulated with spill to stack, halving throughput — this is what
// steers the optimizer to VF4 variants on NEON and VF8 on AVX2.
func vectorUtil(vf, width int) float64 {
	if vf >= width {
		u := 1.0
		if vf > width {
			u = 0.55
		}
		return u
	}
	return float64(vf) / float64(width)
}

// parallelFraction is the parallelizable share of a primitive's runtime
// (Amdahl). The sum2d baseline is single-threaded by construction
// (paper §5.2).
func parallelFraction(p *conv.Primitive) float64 {
	switch p.Family {
	case conv.FamilySum2D:
		return 0
	case conv.FamilyIm2:
		return 0.88
	case conv.FamilyKn2:
		return 0.87
	case conv.FamilyWinograd:
		return 0.86
	case conv.FamilyFFT:
		return 0.85
	default:
		return 0.88
	}
}

// setupOps is the batch-invariant share of algOps: work a batched
// implementation performs once per call rather than once per image.
// For Winograd that is the kernel transform (the batched wino2d entry
// computes U once and streams it over every tile of every image); for
// the precomputing FFT variants it is the kernel spectra. GEMM-based
// and direct families have no algorithmic setup counted in algOps, so
// their batch economy comes from the amortized dispatch overhead (and,
// for memory, the kernel tensor being read once per call).
func setupOps(p *conv.Primitive, s conv.Scenario) float64 {
	c, m := float64(s.C), float64(s.M)
	switch {
	case p.Family == conv.FamilyWinograd && p.Wino2D:
		wm, wr := float64(p.WinoM), float64(p.WinoR)
		t := wm + wr - 1
		return m * c * 2 * t * t * wr
	case p.Family == conv.FamilyWinograd:
		wm, wr := float64(p.WinoM), float64(p.WinoR)
		t := wm + wr - 1
		return m * c * wr * 2 * t * wr
	case p.Family == conv.FamilyFFT && p.Name != "fft1d-naive":
		n := float64(fft.NextPow2(s.W + 2*s.Pad + s.K - 1))
		return m * c * float64(s.K) * 5 * n * math.Log2(n)
	}
	return 0
}

// time is the shared roofline core: max(compute, memory) for the given
// total operation count and memory traffic, with effMul scaling the
// sustained efficiency (1 for per-image execution; the batched path
// passes the calibrated batchGain uplift). The cache-thrash penalty is
// computed on the *per-image* working set: the batched implementations
// stream the batch axis (GEMM panels, per-image tile transforms), so
// the cache-resident inner-loop footprint does not grow with N.
func (mo *Model) time(p *conv.Primitive, s conv.Scenario, threads int, ops, traffic, effMul float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if threads > mo.M.Cores {
		threads = mo.M.Cores
	}
	eff := baseEff(p) * scenarioEffMod(p, s) * mo.M.EffScale * vectorUtil(p.VF, mo.M.VecWidth) * effMul
	peak1 := mo.M.FreqGHz * 1e9 * float64(mo.M.VecWidth) * 2
	f := parallelFraction(p)
	scale := (1 - f) + f/float64(threads)
	computeTime := ops * scale / (peak1 * eff)

	// Cache-thrash penalty: when the algorithm's working set exceeds the
	// per-thread share of the last-level cache, its inner loops stall on
	// misses. This is the mechanism behind the paper's ARM-vs-Intel
	// Winograd dimensionality split (Figure 4).
	ws := p.Workspace(s)
	budget := mo.M.LLC
	if threads > 1 {
		budget = mo.M.LLC / int64(threads)
	}
	if ratio := float64(ws) / float64(budget); ratio > 1 {
		computeTime *= 1 + mo.M.ThrashKappa*(ratio-1)
	}

	memTime := traffic / (mo.M.MemBW * 1e9)
	return math.Max(computeTime, memTime)
}

// Primitive implements Profiler with the roofline-style model
// max(compute, memory) plus fixed overhead. A primitive with a real
// batched entry point pays its setup work (Winograd kernel transform,
// FFT kernel spectra), its kernel traffic and the dispatch overhead
// once per call, and only the per-image streaming work n times. A
// primitive without one executes through the per-image fallback — n
// independent dispatches with nothing amortized — so its cost scales
// linearly, which is exactly what makes the cost-optimal choice
// batch-dependent.
func (mo *Model) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	if n <= 1 || p.RunBatch == nil {
		ops := algOps(p, s)
		traffic := float64(s.InputBytes() + s.OutputBytes() + s.KernelBytes() + 2*p.Workspace(s))
		return float64(max(n, 1)) * (mo.time(p, s, threads, ops, traffic, 1) + perCallOverhead)
	}
	setup := setupOps(p, s)
	perImage := algOps(p, s) - setup
	ops := setup + float64(n)*perImage
	ws := p.Workspace(s)
	traffic := float64(n)*float64(s.InputBytes()+s.OutputBytes()+2*ws) + float64(s.KernelBytes())
	effMul := 1 + batchGain(p)*(1-1/float64(n))
	return mo.time(p, s, threads, ops, traffic, effMul) + perCallOverhead
}

// EpilogueSaving implements Profiler. A standalone elementwise pass
// streams the output slab through memory twice (read + write) and pays
// one dispatch; fusing it into the producing kernel's writeback makes
// both disappear — the epilogue is applied to rows already resident in
// registers.
func (mo *Model) EpilogueSaving(p *conv.Primitive, s conv.Scenario, n int) float64 {
	bytes := 2 * float64(max(n, 1)) * float64(s.OutputBytes())
	return bytes/(mo.M.MemBW*1e9) + perCallOverhead
}

// Transform implements Profiler. Layout permutations are strided
// gather/scatter traffic with poor locality, so their effective
// bandwidth is a small fraction of streaming bandwidth — the reason DT
// costs can dominate small layers (paper §5.8, the GoogleNet direct
// slowdown). The executor converts a whole batch in one call striding
// image by image, so traffic scales with n while the dispatch overhead
// is paid once.
func (mo *Model) Transform(tr tensor.Transform, c, h, w, n int) float64 {
	bytes := float64(max(n, 1)) * float64(tensor.DataLen(tr.From, c, h, w)+tensor.DataLen(tr.To, c, h, w)) * 4
	return bytes*(transformFactor(tr)/16)/(mo.M.GatherBW*1e9) + 2e-6
}
