// Package conv implements the paper's DNN convolution primitive library:
// more than 70 routines drawn from six algorithm families (sum2d,
// direct-loop, im2, kn2, Winograd, FFT), each operating on specific
// input and output data layouts. Every primitive is a real, executable
// implementation whose output is validated against the textbook
// reference; the selector chooses among them per layer.
package conv

import (
	"fmt"
	"math/rand"
	"sync"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// Scenario is the paper's 6-tuple {C,H,W,δ,K,M} describing a
// convolutional layer: C input feature maps of H×W pixels, convolved
// with M C-channel K×K filters at stride δ (field Stride), plus the
// padding the public network models require. Sparsity carries one of
// the paper's future-work extensions (§8): the fraction of zero kernel
// weights. The other, minibatch size, is not part of the scenario: it
// is the n every cost.Profiler method takes, and the batch a plan is
// selected and compiled at.
type Scenario struct {
	C, H, W  int
	Stride   int
	K        int
	M        int
	Pad      int
	Sparsity float64
}

// Validate reports whether the scenario is well formed and produces a
// non-empty output.
func (s Scenario) Validate() error {
	if s.C < 1 || s.H < 1 || s.W < 1 || s.K < 1 || s.M < 1 {
		return fmt.Errorf("conv: non-positive dimension in %+v", s)
	}
	if s.Stride < 1 {
		return fmt.Errorf("conv: stride %d < 1", s.Stride)
	}
	if s.Pad < 0 {
		return fmt.Errorf("conv: negative padding %d", s.Pad)
	}
	if s.OutH() < 1 || s.OutW() < 1 {
		return fmt.Errorf("conv: empty output for %+v", s)
	}
	if s.Sparsity < 0 || s.Sparsity >= 1 {
		return fmt.Errorf("conv: sparsity %v out of [0,1)", s.Sparsity)
	}
	return nil
}

// OutH returns the output feature-map height (H+2P-K)/δ+1.
func (s Scenario) OutH() int { return (s.H+2*s.Pad-s.K)/s.Stride + 1 }

// OutW returns the output feature-map width.
func (s Scenario) OutW() int { return (s.W+2*s.Pad-s.K)/s.Stride + 1 }

// Flops returns the number of multiply-accumulate operations (×2) of the
// direct algorithm: O(H'×W'×C×K²×M), the paper's §2.1 figure.
func (s Scenario) Flops() float64 {
	return 2 * float64(s.OutH()) * float64(s.OutW()) * float64(s.C) * float64(s.K) * float64(s.K) * float64(s.M)
}

// InputBytes returns the payload size of the input tensor.
func (s Scenario) InputBytes() int64 { return int64(s.C) * int64(s.H) * int64(s.W) * 4 }

// OutputBytes returns the payload size of the output tensor.
func (s Scenario) OutputBytes() int64 {
	return int64(s.M) * int64(s.OutH()) * int64(s.OutW()) * 4
}

// KernelBytes returns the payload size of the weight tensor.
func (s Scenario) KernelBytes() int64 { return int64(s.M) * int64(s.C) * int64(s.K) * int64(s.K) * 4 }

// String renders the scenario in the paper's tuple notation.
func (s Scenario) String() string {
	return fmt.Sprintf("{C=%d H=%d W=%d δ=%d K=%d M=%d P=%d}", s.C, s.H, s.W, s.Stride, s.K, s.M, s.Pad)
}

// Kernel is the 4D weight tensor of a convolution layer: M filters of C
// channels and K×K taps, stored MCKK row-major. Weight packing into
// algorithm-specific forms (Toeplitz matrices, Winograd-domain kernels,
// spectra) happens inside the primitives.
type Kernel struct {
	M, C, K int
	Data    []float32
}

// NewKernel allocates a zeroed kernel tensor.
func NewKernel(m, c, k int) *Kernel {
	if m < 1 || c < 1 || k < 1 {
		panic(fmt.Sprintf("conv: invalid kernel dims M=%d C=%d K=%d", m, c, k))
	}
	return &Kernel{M: m, C: c, K: k, Data: make([]float32, m*c*k*k)}
}

// Index returns the flat offset of tap (m,c,kh,kw).
func (k *Kernel) Index(m, c, kh, kw int) int {
	return ((m*k.C+c)*k.K+kh)*k.K + kw
}

// At returns weight (m,c,kh,kw).
func (k *Kernel) At(m, c, kh, kw int) float32 { return k.Data[k.Index(m, c, kh, kw)] }

// Set stores a weight.
func (k *Kernel) Set(m, c, kh, kw int, v float32) { k.Data[k.Index(m, c, kh, kw)] = v }

// FillRandom fills the kernel with deterministic pseudo-random weights.
func (k *Kernel) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range k.Data {
		k.Data[i] = rng.Float32()*2 - 1
	}
}

// FillSparse fills the kernel randomly and then zeroes weights with
// probability sparsity, for exercising the sparse primitives.
func (k *Kernel) FillSparse(seed int64, sparsity float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range k.Data {
		if rng.Float64() < sparsity {
			k.Data[i] = 0
		} else {
			k.Data[i] = rng.Float32()*2 - 1
		}
	}
}

// Family identifies one of the six convolution algorithm families of
// paper §4.
type Family uint8

const (
	// FamilySum2D is the textbook sum-of-single-channels baseline.
	FamilySum2D Family = iota
	// FamilyDirect is the direct six-deep loop nest family.
	FamilyDirect
	// FamilyIm2 is the im2col/im2row Toeplitz-plus-GEMM family.
	FamilyIm2
	// FamilyKn2 is the low-memory kn2row/kn2col sum-of-GEMMs family.
	FamilyKn2
	// FamilyWinograd is the Winograd fast-convolution family.
	FamilyWinograd
	// FamilyFFT computes convolution via the convolution theorem.
	FamilyFFT

	numFamilies
)

// Families lists every family in declaration order.
func Families() []Family {
	return []Family{FamilySum2D, FamilyDirect, FamilyIm2, FamilyKn2, FamilyWinograd, FamilyFFT}
}

// String returns the family's conventional lowercase name as used in the
// paper's figures.
func (f Family) String() string {
	switch f {
	case FamilySum2D:
		return "sum2d"
	case FamilyDirect:
		return "direct"
	case FamilyIm2:
		return "im2"
	case FamilyKn2:
		return "kn2"
	case FamilyWinograd:
		return "winograd"
	case FamilyFFT:
		return "fft"
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Primitive is one entry of the library: an executable convolution
// routine plus the metadata the selector and cost model need. It mirrors
// the paper's 3-tuple {L_in, P, L_out} model — a primitive is only
// usable on an edge whose layouts match.
type Primitive struct {
	Name   string
	Family Family
	In     tensor.Layout
	Out    tensor.Layout

	// VF is the vector-factor hint (1, 4 or 8): how wide the innermost
	// accumulation is blocked. The cost model matches it against a
	// platform's SIMD width (paper §4, "VF4"/"VF8" variants).
	VF int

	// Strided reports whether the routine supports Stride > 1.
	Strided bool

	// Ks restricts supported kernel sizes; nil means any K.
	Ks []int

	// MinC is the smallest channel count the routine accepts (blocked
	// layouts need full blocks to pay off; 0 means no constraint).
	MinC int

	// Sparse marks primitives that exploit kernel sparsity.
	Sparse bool

	// WinoM and WinoR carry the F(m,r) tile parameters of Winograd
	// primitives (zero otherwise); Wino2D distinguishes the nested-2D
	// from the row-wise 1D algorithm. The analytic cost model uses them
	// to count the family's reduced multiplications.
	WinoM, WinoR int
	Wino2D       bool

	// Workspace returns the extra memory in bytes the routine allocates
	// beyond input, kernel and output; the cost model compares it with
	// cache capacities.
	Workspace func(s Scenario) int64

	// Run executes the convolution. The input tensor must be in layout
	// In; the result is produced in layout Out. threads ≤ 1 means
	// single-threaded.
	Run func(in *tensor.Tensor, k *Kernel, s Scenario, threads int) *tensor.Tensor

	// RunBatch, when non-nil, executes the convolution over a whole
	// minibatch in one call, writing into the caller-provided dst batch
	// (same layout/shape contract as Run, batched). Batched entries
	// amortize per-call kernel packing across the minibatch and feed
	// batch-wide matrices to GEMM; primitives without one fall back to
	// per-image Run via RunBatchInto.
	RunBatch func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int)

	// RunBatchFused, when non-nil, is the batched entry with the fused
	// epilogue and pack-absorbed input conversion (see fused.go). in
	// may be in p.In or a layout CanAbsorbInput accepts; epi/res follow
	// RunBatchFusedInto's contract. Primitives without one get the
	// post-pass fallback.
	RunBatchFused func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch)
}

// Supports reports whether the primitive can legally implement the
// scenario.
func (p *Primitive) Supports(s Scenario) bool {
	if s.Validate() != nil {
		return false
	}
	if s.Stride > 1 && !p.Strided {
		return false
	}
	if p.Ks != nil {
		ok := false
		for _, k := range p.Ks {
			if k == s.K {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if s.C < p.MinC {
		return false
	}
	return true
}

// String renders the primitive's identity tuple.
func (p *Primitive) String() string {
	return fmt.Sprintf("%s{%s→%s}", p.Name, p.In, p.Out)
}

// ParallelFor runs fn(i) for i in [0, n) across at most `threads`
// goroutines — the fork-join helper shared by the primitive library
// and the batched layer kernels in internal/program, so there is one
// chunking implementation to maintain.
func ParallelFor(threads, n int, fn func(i int)) { parallelFor(threads, n, fn) }

// parallelFor runs fn(i) for i in [0,n) across `threads` goroutines.
// With threads ≤ 1 it degenerates to a plain loop.
func parallelFor(threads, n int, fn func(i int)) {
	if threads <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if threads > n {
		threads = n
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// inputAt reads logical input pixel (c, h, w) where h and w are
// *unpadded* coordinates that may fall outside the image; out-of-range
// reads return 0, implementing zero padding.
func inputAt(in *tensor.Tensor, c, h, w int) float32 {
	if h < 0 || h >= in.H || w < 0 || w >= in.W {
		return 0
	}
	return in.At(c, h, w)
}

func checkLayout(in *tensor.Tensor, want tensor.Layout, name string) {
	if in.Layout != want {
		panic(fmt.Sprintf("conv: %s expects %s input, got %s", name, want, in.Layout))
	}
}

func checkScenario(in *tensor.Tensor, k *Kernel, s Scenario) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if in.C != s.C || in.H != s.H || in.W != s.W {
		panic(fmt.Sprintf("conv: input %s does not match scenario %s", in, s))
	}
	if k.M != s.M || k.C != s.C || k.K != s.K {
		panic(fmt.Sprintf("conv: kernel M=%d C=%d K=%d does not match scenario %s", k.M, k.C, k.K, s))
	}
}
