package cost

import (
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/tensor"
)

// Measure is the wall-clock profiler: it executes the real Go
// implementation of each primitive on random tensors of the layer's
// shape and takes the best of Reps runs — the literal analogue of the
// paper's layerwise profiling step, which exploits the observation that
// DNN layer runtime depends on input dimensions, not values (§2.2).
// At every batch size, batch 1 included, it wall-clocks the call the
// compiled engine binds — conv.RunBatchInto on an n-image tensor.Batch
// into a pre-allocated destination — so the serialized table prices
// exactly what the engine executes.
type Measure struct {
	// Reps is the number of timed repetitions (best-of). Values < 1
	// mean 1.
	Reps int
	// Threads caps the goroutine count handed to primitives. It is the
	// default thread budget when a call site passes threads < 1, and an
	// upper bound otherwise; zero means no cap (call sites decide).
	Threads int
}

// NewMeasure returns a measurement profiler taking best-of-reps timings.
func NewMeasure(reps int) *Measure { return &Measure{Reps: reps} }

func (me *Measure) reps() int {
	if me.Reps < 1 {
		return 1
	}
	return me.Reps
}

// threadBudget resolves a call site's thread argument against the
// profiler's Threads cap: threads < 1 defaults to the cap (or 1 when
// none is set), and explicit requests are clamped to it.
func (me *Measure) threadBudget(threads int) int {
	if threads < 1 {
		if me.Threads > 0 {
			return me.Threads
		}
		return 1
	}
	if me.Threads > 0 && threads > me.Threads {
		return me.Threads
	}
	return threads
}

// bestOf times fn reps times and returns the minimum in seconds.
func (me *Measure) bestOf(fn func()) float64 {
	best := 0.0
	for r := 0; r < me.reps(); r++ {
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}

// measureKernel fabricates the weight tensor for a scenario.
func measureKernel(s conv.Scenario) *conv.Kernel {
	k := conv.NewKernel(s.M, s.C, s.K)
	if s.Sparsity > 0 {
		k.FillSparse(2, s.Sparsity)
	} else {
		k.FillRandom(2)
	}
	return k
}

// Primitive implements Profiler by wall-clocking one conv.RunBatchInto
// call over an n-image batch slab into a pre-allocated destination
// batch — the exact call the engine issues per conv instruction.
// Primitives without a batched implementation go through
// RunBatchInto's per-image fallback, so their measured cost reflects
// the engine's fallback path too.
func (me *Measure) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	n = max(n, 1)
	threads = me.threadBudget(threads)
	in := tensor.NewBatch(p.In, n, s.C, s.H, s.W)
	for i := 0; i < n; i++ {
		in.Image(i).FillRandom(int64(i + 1))
	}
	k := measureKernel(s)
	dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
	return me.bestOf(func() { conv.RunBatchInto(p, dst, in, k, s, threads) })
}

// Transform implements Profiler by timing the conversion of an n-image
// batch the way the engine executes it: one tensor.ConvertInto per
// image, striding over the batch, with no intermediate allocations.
func (me *Measure) Transform(tr tensor.Transform, c, h, w, n int) float64 {
	n = max(n, 1)
	src := tensor.NewBatch(tr.From, n, c, h, w)
	for i := 0; i < n; i++ {
		src.Image(i).FillRandom(int64(i + 3))
	}
	dst := tensor.NewBatch(tr.To, n, c, h, w)
	return me.bestOf(func() {
		for i := 0; i < n; i++ {
			tensor.ConvertInto(dst.Image(i), src.Image(i))
		}
	})
}

// EpilogueSaving implements Profiler. No fusion credit is measured yet,
// so calibrated tables claim none, which is always sound.
func (me *Measure) EpilogueSaving(*conv.Primitive, conv.Scenario, int) float64 { return 0 }
