package gemm

import (
	"fmt"
	"runtime"
	"sync"
)

// Packed-GEMM blocking parameters. B is packed one KC×NC block at a
// time into a contiguous scratch buffer; the microkernel then streams
// rows of C against the resident block. KC is sized so a block's k-slab
// plus the A and C rows in flight stay L1/L2-resident; NC bounds the
// scratch at KC·NC floats (256 KiB) so a pooled buffer never regrows.
// The A operand needs no separate pack: row-major A already presents
// each row's k-slab as a contiguous panel (an MR=1 row panel), so
// "packing A" would be the identity copy and is elided. The transposed
// orientation is where packing really earns its keep: a B supplied as
// Bᵀ is un-transposed by packBT while it is staged, after which the one
// microkernel serves both orientations.
const (
	packKC = 128
	packNC = 512
)

// packPool recycles B-pack scratch across calls (and across the
// goroutines of ParallelCols, each of which draws its own buffer). The
// buffers are always full-size so a reused buffer never reallocates.
var packPool = sync.Pool{
	New: func() any {
		s := make([]float32, packKC*packNC)
		return &s
	},
}

// Epilogue selects a fused elementwise post-pass the packed kernel
// applies to each output stripe immediately after its accumulation
// completes, while the stripe is still cache-resident — the
// generalization of the fused-Accumulate mechanism. The operand
// conventions match the conv-as-GEMM orientations: Bias adds a
// per-column vector (output channels sit in columns for the im2row and
// FC/TransB orientations), Add/AddReLU add a residual slab r aligned
// element-for-element with C.
type Epilogue int

const (
	EpiNone    Epilogue = iota
	EpiReLU             // C = max(C, 0)
	EpiBias             // C[i,j] += bias[j]
	EpiAdd              // C += R
	EpiAddReLU          // C = max(C + R, 0)
)

// String names the epilogue the way program listings render it.
func (e Epilogue) String() string {
	switch e {
	case EpiNone:
		return "none"
	case EpiReLU:
		return "relu"
	case EpiBias:
		return "bias"
	case EpiAdd:
		return "add"
	case EpiAddReLU:
		return "add+relu"
	}
	return "epi?"
}

// checkEpi validates the epilogue operands against the output shape,
// mirroring checkDims' panic-on-misuse contract.
func checkEpi(m, n int, epi Epilogue, r, bias []float32) {
	switch epi {
	case EpiAdd, EpiAddReLU:
		if len(r) < m*n {
			panic(fmt.Sprintf("gemm: epilogue %v residual too small for m=%d n=%d (r=%d)",
				epi, m, n, len(r)))
		}
	case EpiBias:
		if len(bias) < n {
			panic(fmt.Sprintf("gemm: epilogue bias too small for n=%d (bias=%d)", n, len(bias)))
		}
	}
}

// Packed computes C = A·B with the packed, register-tiled kernel: B is
// staged KC×NC blocks at a time into pooled scratch and each row of C
// is updated by the dispatched microkernel — the AVX2/FMA assembly
// kernel when the CPU has it, the k-unrolled row-streaming pure-Go
// packedRowK4 otherwise (see Variant and the FP-association contract
// in dispatch.go). Within either variant every element's partial
// products accumulate in a fixed order, so results are bitwise stable
// across repeated calls with reused pack buffers — though each
// variant's grouping rounds differently than Naive's one-product fold
// (and than the other variant's), so cross-kernel agreement is within
// tolerance, not bitwise. C is overwritten.
func Packed(m, n, k int, a, b, c []float32) {
	checkDims(m, n, k, a, b, c)
	packedRange(m, n, k, 0, n, a, b, c, false, false, EpiNone, nil, nil)
}

// PackedEpi is Packed with a fused epilogue: each output stripe gets
// the elementwise post-pass applied right after its last partial
// product lands, so the slab is written once instead of
// written-then-rewalked. The epilogue runs per fully-accumulated
// column stripe (the jc loop is outermost) — on the SIMD path it is
// folded into the final KC block's writeback while the 16-column tile
// is still register-resident — so it sees exactly the values Packed
// would have produced: under either microkernel variant, a fused ReLU
// or residual add is bitwise identical to running the separate pass
// afterwards.
func PackedEpi(m, n, k int, a, b, c []float32, epi Epilogue, r, bias []float32) {
	checkDims(m, n, k, a, b, c)
	checkEpi(m, n, epi, r, bias)
	packedRange(m, n, k, 0, n, a, b, c, false, false, epi, r, bias)
}

// Accumulate computes C += A·B — the fused-epilogue variant of Packed.
// It does not clear C first; the kn2 convolution family and the
// Winograd/FFT pointwise stages rely on this to sum partial products in
// place.
func Accumulate(m, n, k int, a, b, c []float32) {
	checkDims(m, n, k, a, b, c)
	packedRange(m, n, k, 0, n, a, b, c, true, false, EpiNone, nil, nil)
}

// TransB computes C = A·Bᵀ where bt holds B transposed as an n×k
// row-major matrix — the "BT" kernel variant the paper's Figure 4
// selects on ARM. A transposed B is just a different pack routine:
// packBT un-transposes each KC×NC block while staging it, and the same
// microkernel runs unchanged. Dimension checking is shared with every
// other kernel via checkDims (an n×k operand and a k×n operand have the
// same element count).
func TransB(m, n, k int, a, bt, c []float32) {
	checkDims(m, n, k, a, bt, c)
	packedRange(m, n, k, 0, n, a, bt, c, false, true, EpiNone, nil, nil)
}

// TransBEpi is TransB with a fused epilogue (see PackedEpi).
func TransBEpi(m, n, k int, a, bt, c []float32, epi Epilogue, r, bias []float32) {
	checkDims(m, n, k, a, bt, c)
	checkEpi(m, n, epi, r, bias)
	packedRange(m, n, k, 0, n, a, bt, c, false, true, epi, r, bias)
}

// ParallelCols computes C = A·B splitting the *columns* of B across
// `threads` goroutines, each running the packed kernel on its own
// column stripe with its own pooled pack buffer. This is the
// batched-GEMM entry point: a minibatch widens the n dimension (images
// side by side as column blocks) while m — the filter count — stays
// fixed, so splitting rows (Parallel) runs out of parallelism exactly
// when batching creates more. Every element of C is written by exactly
// one goroutine in a fixed per-element order, so results are
// deterministic run to run.
func ParallelCols(threads, m, n, k int, a, b, c []float32) {
	ParallelColsEpi(threads, m, n, k, a, b, c, EpiNone, nil, nil)
}

// ParallelColsEpi is ParallelCols with a fused epilogue. The epilogue
// is elementwise and each output element belongs to exactly one column
// stripe, so each goroutine applies it to its own stripe with no
// cross-stripe dependency — determinism and the per-element write-once
// discipline are unchanged.
func ParallelColsEpi(threads, m, n, k int, a, b, c []float32, epi Epilogue, r, bias []float32) {
	checkDims(m, n, k, a, b, c)
	checkEpi(m, n, epi, r, bias)
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		packedRange(m, n, k, 0, n, a, b, c, false, false, epi, r, bias)
		return
	}
	var wg sync.WaitGroup
	cols := (n + threads - 1) / threads
	// Stripe boundaries are rounded up to 16-column alignment so the
	// SIMD microkernel's 16-wide tiles (and the scalar columns past the
	// last 16-aligned one) land on the same global columns no matter
	// how the split falls — the structural fact that keeps ParallelCols
	// bitwise identical to Packed under both microkernel variants.
	cols = (cols + 15) &^ 15
	for t := 0; t < threads; t++ {
		j0 := t * cols
		j1 := min(j0+cols, n)
		if j0 >= j1 {
			break
		}
		wg.Add(1)
		go func(j0, j1 int) {
			defer wg.Done()
			packedRange(m, n, k, j0, j1, a, b, c, false, false, epi, r, bias)
		}(j0, j1)
	}
	wg.Wait()
}

// packedRange runs the packed kernel on the [j0, j1) column stripe of
// C: stage a KC×NC block of B (or of Bᵀ, un-transposing), then stream
// every row of C against it with the dispatched microkernel. The KC
// blocks advance in increasing-k order and each variant's per-element
// accumulation structure depends only on p's alignment and the
// element's *global* column (the SIMD path aligns its 16-wide tiles to
// global column indices and ParallelCols splits on 16-column
// boundaries), never on the column stripe, so every element's
// accumulation sequence is the same no matter how the columns are
// split across goroutines. The epilogue is applied to each NC stripe
// right after its pc loop ends — the jc loop is outermost, so every
// element of the stripe is fully accumulated there and still warm in
// cache; the SIMD path goes one step further and folds it into the
// final KC block's register-resident writeback, which by the
// add-then-store ordering produces bitwise the same values.
func packedRange(m, n, k, j0, j1 int, a, b, c []float32, accumulate, transB bool, epi Epilogue, r, bias []float32) {
	if !accumulate {
		for i := 0; i < m; i++ {
			ci := c[i*n+j0 : i*n+j1]
			for j := range ci {
				ci[j] = 0
			}
		}
	}
	if m == 0 || k == 0 || j1 <= j0 {
		// Degenerate product: C's stripe is all zeros (or untouched
		// under accumulate) but the epilogue still owes its pass.
		if epi != EpiNone {
			for i := 0; i < m; i++ {
				applyEpiRow(epi, c[i*n+j0:i*n+j1], epiResidual(epi, r, i*n+j0, j1-j0), epiBias(epi, bias, j0, j1-j0))
			}
		}
		return
	}
	simd := simdEnabled.Load()
	sp := packPool.Get().(*[]float32)
	buf := *sp
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		for pc := 0; pc < k; pc += packKC {
			kc := min(packKC, k-pc)
			bp := buf[:kc*nc]
			if transB {
				packBT(kc, nc, k, b[jc*k+pc:], bp)
			} else {
				packB(kc, nc, n, b[pc*n+jc:], bp)
			}
			if simd {
				rowEpi := EpiNone
				if pc+kc == k {
					rowEpi = epi // last KC block: fold the epilogue into the writeback
				}
				for i := 0; i < m; i++ {
					packedRowSIMD(a[i*k+pc:][:kc], bp, c[i*n+jc:], jc, nc, rowEpi,
						epiResidual(rowEpi, r, i*n+jc, nc), epiBias(rowEpi, bias, jc, nc))
				}
			} else {
				for i := 0; i < m; i++ {
					packedRowK4(a[i*k+pc:][:kc], bp, c[i*n+jc:], nc)
				}
			}
		}
		if !simd && epi != EpiNone {
			for i := 0; i < m; i++ {
				applyEpiRow(epi, c[i*n+jc:][:nc], epiResidual(epi, r, i*n+jc, nc), epiBias(epi, bias, jc, nc))
			}
		}
	}
	packPool.Put(sp)
}

// packedRowSIMD updates one C row stripe against the packed panel with
// the AVX2 microkernel. ci is the row's stripe view starting at global
// column jc; the assembly kernel covers the 16-aligned tile run — tiles
// are aligned to *global* columns, not to the stripe, so a ParallelCols
// split never changes which tile (or which scalar edge) an element
// belongs to — and packedRowPart picks up the ragged head (j0 unaligned;
// never hit by the exported entry points) and the final global tail.
// epi is EpiNone except on the last KC block, where the fused epilogue
// is applied tile-by-tile while the sums are register-resident; ri and
// bv are the stripe-aligned residual/bias views (nil when unused).
func packedRowSIMD(ai, bp, ci []float32, jc, nc int, epi Epilogue, ri, bv []float32) {
	ci = ci[:nc]
	head := (16 - jc&15) & 15
	if head > nc {
		head = nc
	}
	full := (nc - head) &^ 15
	if head > 0 {
		packedRowPart(ai, bp, ci, 0, head, nc)
		if epi != EpiNone {
			applyEpiRow(epi, ci[:head], epiSub(ri, 0, head), epiSub(bv, 0, head))
		}
	}
	if full > 0 {
		var rp, bp2 *float32
		if ri != nil {
			rp = &ri[head]
		}
		if bv != nil {
			bp2 = &bv[head]
		}
		packedRowFMA(&ai[0], len(ai), &bp[head], &ci[head], full, nc, int(epi), rp, bp2)
	}
	if lo := head + full; lo < nc {
		packedRowPart(ai, bp, ci, lo, nc, nc)
		if epi != EpiNone {
			applyEpiRow(epi, ci[lo:nc], epiSub(ri, lo, nc), epiSub(bv, lo, nc))
		}
	}
}

// packedRowPart accumulates the scalar ragged columns [lo, hi) of one C
// row against the packed panel — the <16-wide head/tail the SIMD
// microkernel cannot tile. Partial products fold sequentially in
// increasing k; which columns take this path depends only on global
// column indices, so the order is stable across stripe splits.
//
//dnn:hotpath
func packedRowPart(ai, bp, ci []float32, lo, hi, nc int) {
	w := ci[lo:hi]
	for p, av := range ai {
		row := bp[p*nc+lo:][:len(w)]
		for j, bv := range row {
			w[j] += av * bv
		}
	}
}

// epiSub narrows a per-stripe epilogue operand view to a sub-segment,
// tolerating the nil an unused operand arrives as.
func epiSub(s []float32, lo, hi int) []float32 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// epiResidual slices the residual operand aligned with a C row segment,
// tolerating nil when the epilogue doesn't read it.
func epiResidual(epi Epilogue, r []float32, off, nc int) []float32 {
	if epi != EpiAdd && epi != EpiAddReLU {
		return nil
	}
	return r[off:][:nc]
}

// epiBias slices the per-column bias aligned with a C row segment,
// tolerating nil when the epilogue doesn't read it.
func epiBias(epi Epilogue, bias []float32, jc, nc int) []float32 {
	if epi != EpiBias {
		return nil
	}
	return bias[jc:][:nc]
}

// ApplyEpi applies the epilogue to an m×n output slab as a standalone
// post-pass — the fallback for kernel variants without a fused form.
// The arithmetic is identical to the fused application, so fused and
// post-pass results agree bitwise.
func ApplyEpi(epi Epilogue, m, n int, c, r, bias []float32) {
	if epi == EpiNone {
		return
	}
	checkEpi(m, n, epi, r, bias)
	for i := 0; i < m; i++ {
		applyEpiRow(epi, c[i*n:][:n], epiResidual(epi, r, i*n, n), epiBias(epi, bias, 0, n))
	}
}

// applyEpiRow applies the fused epilogue to one fully-accumulated row
// segment of C. ri and bv (when the epilogue reads them) are views of
// exactly len(ci) elements, so the paired indexing carries no bounds
// checks.
//
//dnn:hotpath
func applyEpiRow(epi Epilogue, ci, ri, bv []float32) {
	switch epi {
	case EpiReLU:
		for j, v := range ci {
			if v < 0 {
				ci[j] = 0
			}
		}
	case EpiBias:
		bv = bv[:len(ci)]
		for j := range ci {
			ci[j] += bv[j]
		}
	case EpiAdd:
		ri = ri[:len(ci)]
		for j := range ci {
			ci[j] += ri[j]
		}
	case EpiAddReLU:
		ri = ri[:len(ci)]
		for j := range ci {
			v := ci[j] + ri[j]
			if v < 0 {
				v = 0
			}
			ci[j] = v
		}
	}
}

// packB stages a kc×nc block of row-major B (row stride ldb) into the
// contiguous pack buffer dst, one row copy per k step.
//
//dnn:hotpath
func packB(kc, nc, ldb int, src, dst []float32) {
	for p := 0; p < kc; p++ {
		copy(dst[p*nc:][:nc], src[p*ldb:][:nc])
	}
}

// packBT stages a kc×nc block of B from its transposed storage (src is
// Bᵀ: rows of src are columns of B, row stride ldb), un-transposing
// into the same layout packB produces. Columns are processed four at a
// time so the strided gather reads four source rows per pass; the
// four-element scatter into dst is a nested loop over a same-length
// pair of views, keeping the per-element stores check-free.
//
//dnn:hotpath
func packBT(kc, nc, ldb int, src, dst []float32) {
	for jq := 0; jq < nc; jq += 4 {
		w := nc - jq
		if w > 4 {
			w = 4
		}
		s0 := src[jq*ldb:][:kc]
		s1, s2, s3 := s0, s0, s0
		if w > 1 {
			s1 = src[(jq+1)*ldb:][:kc]
		}
		if w > 2 {
			s2 = src[(jq+2)*ldb:][:kc]
		}
		if w > 3 {
			s3 = src[(jq+3)*ldb:][:kc]
		}
		var t [4]float32
		for p, v0 := range s0 {
			t[0] = v0
			t[1] = s1[p]
			t[2] = s2[p]
			t[3] = s3[p]
			d := dst[p*nc+jq:][:w]
			tt := t[:w]
			for q, tv := range tt {
				d[q] = tv
			}
		}
	}
}

// packedRowK4 is the pure-Go microkernel — the documented fallback the
// dispatcher selects on non-amd64 targets, under the `purego` build
// tag, with DNN_NOSIMD set, or when the CPU lacks AVX2/FMA (and the
// per-variant and differential tests force on any box via SetSIMD).
// One C row is updated
// against a resident kc×nc packed B block, with k unrolled by four so
// each pass over the row combines four B panel rows (eight FLOPs per
// element visit). The four a-scalars live in registers; every slice in
// the leaf loop is a [:nc] view sharing one length value, so the
// accumulation carries no bounds checks. The caller pre-zeroes C rows
// (or not, for the accumulate epilogue), which keeps overwrite and
// accumulate on this single kernel.
//
//dnn:hotpath
func packedRowK4(ai, bp, ci []float32, nc int) {
	ci = ci[:nc]
	kc := len(ai)
	p := 0
	for ; p+4 <= kc; p += 4 {
		a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
		b0 := bp[p*nc:][:nc]
		b1 := bp[(p+1)*nc:][:nc]
		b2 := bp[(p+2)*nc:][:nc]
		b3 := bp[(p+3)*nc:][:nc]
		for j, bv := range b0 {
			ci[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < kc; p++ {
		av := ai[p]
		b0 := bp[p*nc:][:nc]
		for j, bv := range b0 {
			ci[j] += av * bv
		}
	}
}
