package conv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
	"pbqpdnn/internal/winograd"
)

// This file holds the minibatch entry points of the primitive library.
// Where Run computes one image, RunBatchInto computes a whole N-image
// batch in one call, writing into a caller-provided destination batch —
// the contract the compiled batched program (internal/program) binds
// its conv instructions to. Batched implementations restructure the
// work so the minibatch buys kernel-level economy, not just repetition:
//
//   - im2row: all N images' patch rows stack into one tall Toeplitz
//     matrix feeding a single GEMM whose output rows ARE the HWC batch
//     slab (for 1×1/stride-1 convolutions the input batch slab IS the
//     patch matrix, so the whole layer is exactly one GEMM call);
//   - im2col: images lie side by side as column blocks of one wide
//     patch matrix, one GEMM, then a per-image writeback;
//   - wino2d: the kernel transform is computed once for the batch and
//     the tiles of all N images are cut into fixed-size blocks, each
//     run start to finish by one worker with one (Tb×C)·(C×M) GEMM per
//     Winograd-domain point — the transformed kernel is amortized over
//     every tile of every image.
//
// Primitives without a batched implementation fall back to per-image
// Run, parallelized across images.

// checkBatch validates the batched call's geometry against the
// scenario and the primitive's layouts.
func checkBatch(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario) {
	if in.N != dst.N {
		panic(fmt.Sprintf("conv: batch size mismatch in=%d dst=%d", in.N, dst.N))
	}
	if in.Layout != p.In || dst.Layout != p.Out {
		panic(fmt.Sprintf("conv: %s expects %s→%s, got %s→%s", p.Name, p.In, p.Out, in.Layout, dst.Layout))
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if in.C != s.C || in.H != s.H || in.W != s.W {
		panic(fmt.Sprintf("conv: input %s does not match scenario %s", in, s))
	}
	if dst.C != s.M || dst.H != s.OutH() || dst.W != s.OutW() {
		panic(fmt.Sprintf("conv: dst %s does not match scenario %s", dst, s))
	}
	if k.M != s.M || k.C != s.C || k.K != s.K {
		panic(fmt.Sprintf("conv: kernel M=%d C=%d K=%d does not match scenario %s", k.M, k.C, k.K, s))
	}
}

// RunBatchInto executes the primitive over the whole minibatch,
// writing image i's output into dst.Image(i). It dispatches to the
// primitive's batched implementation when one exists; otherwise each
// image runs through the per-image Run (in parallel across images when
// threads allow) and is copied into its destination slab.
func RunBatchInto(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
	checkBatch(p, dst, in, k, s)
	if p.RunBatch != nil {
		p.RunBatch(dst, in, k, s, threads)
		return
	}
	if in.N == 1 {
		out := p.Run(in.Image(0), k, s, threads)
		copy(dst.Slab(0), out.Data)
		return
	}
	parallelFor(threads, in.N, func(i int) {
		out := p.Run(in.Image(i), k, s, 1)
		copy(dst.Slab(i), out.Data)
	})
}

// gemmKernel runs one C = A·B multiply with the plan-selected kernel
// variant (bt, when non-nil, is B pre-transposed for the abt variant).
// Every variant is deterministic run to run; the scalar variants agree
// bitwise with each other, while the packed kernel's k-unrolled product
// grouping rounds slightly differently (within the library's 1e-4
// equivalence tolerance).
func gemmKernel(kind gemmKind, m, n, k int, a, b, bt, c []float32) {
	switch kind {
	case gemmNaive:
		gemm.Naive(m, n, k, a, b, c)
	case gemmBlocked:
		gemm.Blocked(m, n, k, 0, a, b, c)
	case gemmTransB:
		gemm.TransB(m, n, k, a, bt, c)
	case gemmPacked:
		gemm.Packed(m, n, k, a, b, c)
	default:
		gemm.IKJ(m, n, k, a, b, c)
	}
}

// gemmRows runs C = A·B splitting A's rows across the thread budget,
// each worker applying the plan-selected kernel variant to its
// contiguous row slab — the batched split preserves what the PBQP
// cost model priced, unlike collapsing every variant to one parallel
// kernel.
func gemmRows(kind gemmKind, threads, m, n, k int, a, b, bt, c []float32) {
	if threads > m {
		threads = m
	}
	if threads <= 1 {
		gemmKernel(kind, m, n, k, a, b, bt, c)
		return
	}
	rows := (m + threads - 1) / threads
	var slabs [][2]int
	for lo := 0; lo < m; lo += rows {
		hi := lo + rows
		if hi > m {
			hi = m
		}
		slabs = append(slabs, [2]int{lo, hi})
	}
	parallelFor(threads, len(slabs), func(i int) {
		lo, hi := slabs[i][0], slabs[i][1]
		gemmKernel(kind, hi-lo, n, k, a[lo*k:], b, bt, c[lo*n:])
	})
}

// im2rowBatch builds the plain batched im2row entry as the fused one
// with no fused work.
func im2rowBatch(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
	f := im2rowBatchFused(kind)
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
		f(dst, in, k, s, threads, gemm.EpiNone, nil)
	}
}

// im2rowBatchFused builds the batched im2row entry: one tall patch
// matrix (N·Ho·Wo)×(C·K²) — the input batch slab itself for
// 1×1/stride-1 HWC input — and one GEMM writing directly into the HWC
// output batch slab, with the epilogue applied inside the GEMM's
// output write. CHW input is absorbed by the pack: the patch builder
// gathers from the CHW slab directly, replacing the standalone
// conversion instruction.
func im2rowBatchFused(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
		oh, ow := s.OutH(), s.OutW()
		rowsPerImage := oh * ow
		m, n, kk := in.N*rowsPerImage, s.M, s.K*s.K*s.C
		fromCHW := in.Layout == tensor.CHW
		var patches []float32
		if !fromCHW && s.K == 1 && s.Stride == 1 && s.Pad == 0 {
			// A 1×1 window at stride 1 makes every HWC pixel row its own
			// patch row: the batch slab is already the Toeplitz matrix.
			patches = in.Data[:m*kk]
		} else {
			patches = make([]float32, m*kk)
			parallelFor(threads, in.N, func(img int) {
				seg := patches[img*rowsPerImage*kk : (img+1)*rowsPerImage*kk]
				if fromCHW {
					im2rowPatchesFromCHWInto(seg, in.Image(img), s)
				} else {
					im2rowPatchesInto(seg, in.Image(img), s)
				}
			})
		}
		b := kernelMatrixKKC(k) // packed once per batch, not per image
		var bt []float32
		if kind == gemmTransB {
			bt = transposeMat(kk, n, b)
		}
		// The HWC output slab rows ARE the GEMM result rows, so the
		// residual batch aligns elementwise with C.
		var r []float32
		if res != nil {
			r = res.Data[:m*n]
		}
		// The patch-row dimension m = N·Ho·Wo is the tall axis, so the
		// thread split is always by rows, with the selected variant run
		// on each slab.
		gemmRowsEpi(kind, threads, m, n, kk, patches, b, bt, dst.Data[:m*n], epi, r)
	}
}

// im2colBatch builds the plain batched im2col entry as the fused one
// with no fused work.
func im2colBatch(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
	f := im2colBatchFused(kind)
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
		f(dst, in, k, s, threads, gemm.EpiNone, nil)
	}
}

// im2colBatchFused builds the batched im2col entry: images side by
// side as column blocks of one (C·K²)×(N·Ho·Wo) patch matrix, one
// GEMM, and a slab writeback de-interleaving the M×(N·Ho·Wo) result
// into per-image CHW planes. HWC input is absorbed by the pack. The
// epilogue rides the GEMM output write when the result lands in dst
// directly (N == 1); for N > 1 the interleaved flat result cannot
// align with per-image residual slabs, so the epilogue fuses into the
// de-interleaving writeback instead — still exactly one walk over dst.
func im2colBatchFused(kind gemmKind) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	return func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
		oh, ow := s.OutH(), s.OutW()
		colsPerImage := oh * ow
		m, n, kk := s.M, in.N*colsPerImage, s.C*s.K*s.K
		fromHWC := in.Layout == tensor.HWC
		patches := make([]float32, kk*n)
		parallelFor(threads, in.N, func(img int) {
			if fromHWC {
				im2colPatchesFromHWCIntoCols(patches, n, img*colsPerImage, in.Image(img), s)
			} else {
				im2colPatchesIntoCols(patches, n, img*colsPerImage, in.Image(img), s)
			}
		})
		a := kernelMatrixMCK(k)
		// The M×(N·Ho·Wo) result interleaves images within each filter
		// row, so N > 1 needs a de-interleaving writeback; a single-image
		// chunk is exactly the CHW output slab and GEMMs straight into it.
		flat := dst.Slab(0)
		gemmEpi := epi
		var r []float32
		if in.N > 1 {
			flat = make([]float32, m*n)
			gemmEpi = gemm.EpiNone // epilogue fuses into the writeback below
		} else if res != nil {
			r = res.Slab(0)
		}
		if threads > 1 && m < threads {
			// Too few filter rows to feed the pool: split the batch-wide
			// column axis instead. ParallelCols runs the packed kernel on
			// per-goroutine column stripes, so this (rare) shape collapses
			// the kernel variant to packed; row counts M ≥ threads — every
			// real model here — keep the selected one.
			gemm.ParallelColsEpi(threads, m, n, kk, a, patches, flat, gemmEpi, r, nil)
		} else {
			var pt []float32
			if kind == gemmTransB {
				pt = transposeMat(kk, n, patches)
			}
			gemmRowsEpi(kind, threads, m, n, kk, a, patches, pt, flat, gemmEpi, r)
		}
		if in.N == 1 {
			return
		}
		parallelFor(threads, in.N, func(img int) {
			slab := dst.Slab(img)
			var rs []float32
			if res != nil {
				rs = res.Slab(img)
			}
			for mm := 0; mm < m; mm++ {
				dstRow := slab[mm*colsPerImage : (mm+1)*colsPerImage]
				srcRow := flat[mm*n+img*colsPerImage : mm*n+(img+1)*colsPerImage]
				var rrow []float32
				if rs != nil {
					rrow = rs[mm*colsPerImage : (mm+1)*colsPerImage]
				}
				epiWritebackRow(epi, dstRow, srcRow, rrow)
			}
		})
	}
}

// wino2DBatch builds the batched 2D Winograd entry: a tile-blocked
// pipeline over the tiles of all N images. The VF4/VF8 lane variants of
// the per-image primitive deliberately share this one batched
// implementation: the GEMM subsumes lane blocking, so the vector factor
// only differentiates the cost model's pricing, not the batched
// execution.
//
// The kernel transform runs once per call into Uᵀ panels, split over
// output channels across the thread budget. The N·tilesY·tilesX tiles
// then form one index space cut into blocks of Tb tiles
// (winoBlockTiles). Each worker takes whole blocks and runs a block
// start to finish with no barrier between stages: gather → input
// transform → tt GEMMs → output transform → scatter. The panels are
// tile-major, one GEMM per Winograd-domain point i,
//
//	Yᵀ_i[Tb×M] = Vᵀ_i[Tb×C] · Uᵀ_i[C×M],
//
// so every tile's channel vector is contiguous for the HWC gather and
// scatter, and the tall tile axis rides gemm.Packed as im2row's patch
// rows do. Transforms stay in float64 (numerical headroom, as in the
// per-image primitive), lane-vectorised over channels; the pointwise
// accumulation runs in float32 like the GEMM-backed families. Each
// output element depends only on its own tile and on the layer, so the
// result is bitwise the same at every thread count.
func wino2DBatch(m, r int, layout tensor.Layout) func(dst, in *tensor.Batch, k *Kernel, s Scenario, threads int) {
	plan := winograd.NewPlan(m, r)
	return func(dst, in *tensor.Batch, kern *Kernel, s Scenario, threads int) {
		if s.Stride != 1 || s.K != r {
			panic(fmt.Sprintf("wino2d F(%d,%d): unsupported scenario %s", m, r, s))
		}
		oh, ow := s.OutH(), s.OutW()
		tilesX := (ow + m - 1) / m
		l := &winoLayer{
			plan: plan, hwc: layout == tensor.HWC, in: in, out: dst,
			C: s.C, H: s.H, W: s.W, M: s.M, pad: s.Pad, oh: oh, ow: ow,
			tilesX: tilesX, tilesPerImage: (oh + m - 1) / m * tilesX,
		}
		tt := plan.T * plan.T
		tiles := in.N * l.tilesPerImage
		// A batch with fewer tiles than a block is one short block; the
		// panels need only that many rows.
		l.tb = min(winoBlockTiles(tt, s.C, s.M), tiles)
		nblocks := (tiles + l.tb - 1) / l.tb

		ub := winoKernelPool.Get().(*[]float32)
		*ub = grow(*ub, tt*s.C*s.M)
		defer winoKernelPool.Put(ub)
		l.ut = *ub
		l.transformKernel(kern, threads)

		workers := max(min(threads, nblocks), 1)
		var next atomic.Int64
		parallelFor(workers, workers, func(int) {
			sc := l.scratch()
			defer winoBlockPool.Put(sc)
			for b := int(next.Add(1)) - 1; b < nblocks; b = int(next.Add(1)) - 1 {
				l.runBlock(b*l.tb, min(l.tb, tiles-b*l.tb), sc)
			}
		})
	}
}

// winoBlockBytes bounds the float32 Vᵀ+Yᵀ panels of one block.
const winoBlockBytes = 512 << 10

// winoBlockTiles returns the tiles per block of a layer: the largest
// multiple of 16 whose Vᵀ and Yᵀ panels (tt points × (C+M) float32
// values per tile) fit in winoBlockBytes, and never fewer than 16. It
// reads the layer shape alone — never the thread count — so the blocks,
// and the rows each GEMM sees, are the same however many workers run.
func winoBlockTiles(tt, c, m int) int {
	return max(winoBlockBytes/(tt*(c+m)*4)&^15, 16)
}

// winoLayer is one batched Winograd call's geometry and operands,
// shared read-only by its workers.
type winoLayer struct {
	plan          *winograd.Plan
	hwc           bool
	in, out       *tensor.Batch
	C, H, W, M    int
	pad, oh, ow   int
	tilesX        int
	tilesPerImage int
	tb            int       // tiles per block
	ut            []float32 // Uᵀ: tt panels of C×M
}

// winoScratch is one worker's block buffers: the float32 Vᵀ and Yᵀ
// panels of a block (tt panels of Tb×C and Tb×M) and the float64 tile
// and transform scratch (one t×t grid of max(C,M) lanes each).
type winoScratch struct {
	v, y   []float32
	x, tmp []float64
}

// The batched Winograd scratch is recycled across calls the way gemm's
// packPool recycles B panels, so a steady-state call allocates nothing
// per tile or per block: winoKernelPool holds Uᵀ buffers (refilled by
// every call — transformed kernels are not cached across calls) and
// winoBlockPool the per-worker block buffers. A pooled buffer too small
// for the layer is replaced by a larger one.
var (
	winoKernelPool = sync.Pool{New: func() any { return new([]float32) }}
	winoBlockPool  = sync.Pool{New: func() any { return new(winoScratch) }}
)

// grow returns s resliced to n, reallocated when its capacity is short.
func grow[T float32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratch takes one worker's block buffers from the pool, sized for the
// layer.
func (l *winoLayer) scratch() *winoScratch {
	tt := l.plan.T * l.plan.T
	sc := winoBlockPool.Get().(*winoScratch)
	sc.v = grow(sc.v, tt*l.tb*l.C)
	sc.y = grow(sc.y, tt*l.tb*l.M)
	sc.x = grow(sc.x, l.plan.VecLen(max(l.C, l.M)))
	sc.tmp = grow(sc.tmp, len(sc.x))
	return sc
}

// transformKernel fills the Uᵀ panels, Uᵀ_i[c][mm] = U(mm,c)_i, with
// the output channels split across the thread budget, at least 16 per
// worker (fewer is less work than waking a goroutine). Each worker
// transforms its channel range for one input channel at a time, lane-
// vectorised over the range.
func (l *winoLayer) transformKernel(k *Kernel, threads int) {
	workers := max(min(threads, l.M/16), 1)
	chunk := (l.M + workers - 1) / workers
	r, tt, cm := l.plan.R, l.plan.T*l.plan.T, l.C*l.M
	parallelFor(workers, workers, func(w int) {
		lo := w * chunk
		n := min(chunk, l.M-lo)
		if n <= 0 {
			return
		}
		sc := l.scratch()
		defer winoBlockPool.Put(sc)
		x, tmp := sc.x[:l.plan.VecLen(n)], sc.tmp
		for c := 0; c < l.C; c++ {
			winoGatherKernel(x, k.Data[(lo*l.C+c)*r*r:], n, l.C*r*r, r*r)
			l.plan.KernelTransformVec(x, tmp, n)
			for i := 0; i < tt; i++ {
				winoStoreLanes(l.ut[i*cm+c*l.M+lo:][:n], x[i*n:])
			}
		}
	})
}

// runBlock computes the rows tiles starting at global tile index t0
// (image-major, then tile row, then tile column): gather and transform
// each into the Vᵀ panels, multiply by Uᵀ at every Winograd-domain
// point, then transform each Yᵀ row back and scatter it.
func (l *winoLayer) runBlock(t0, rows int, sc *winoScratch) {
	p := l.plan
	m, t, tt, tb := p.M, p.T, p.T*p.T, l.tb
	C, M := l.C, l.M
	for row := 0; row < rows; row++ {
		img, y0, x0 := l.tileOrigin(t0 + row)
		x := sc.x[:tt*C]
		src := l.in.Slab(img)
		if l.hwc {
			winoGatherHWC(x, src, l.H, l.W, C, t, y0-l.pad, x0-l.pad)
		} else {
			winoGatherCHW(x, src, l.H, l.W, C, t, y0-l.pad, x0-l.pad)
		}
		p.InputTransformVec(x, sc.tmp, C)
		for i := 0; i < tt; i++ {
			winoStoreLanes(sc.v[(i*tb+row)*C:][:C], x[i*C:])
		}
	}
	for i := 0; i < tt; i++ {
		gemm.Packed(rows, M, C, sc.v[i*tb*C:][:rows*C], l.ut[i*C*M:][:C*M], sc.y[i*tb*M:][:rows*M])
	}
	for row := 0; row < rows; row++ {
		img, y0, x0 := l.tileOrigin(t0 + row)
		x := sc.x[:tt*M]
		for i := 0; i < tt; i++ {
			winoLoadLanes(x[i*M:][:M], sc.y[(i*tb+row)*M:])
		}
		p.OutputTransformVec(x, sc.tmp, M)
		dst := l.out.Slab(img)
		if l.hwc {
			winoScatterHWC(dst, x, l.oh, l.ow, M, m, y0, x0)
		} else {
			winoScatterCHW(dst, x, l.oh, l.ow, M, m, y0, x0)
		}
	}
}

// tileOrigin maps a global tile index to its image and the output
// pixel at the tile's top-left corner.
func (l *winoLayer) tileOrigin(g int) (img, y0, x0 int) {
	img, g = g/l.tilesPerImage, g%l.tilesPerImage
	return img, g / l.tilesX * l.plan.M, g % l.tilesX * l.plan.M
}

// winoGatherHWC fills x with the t×t tile of channel vectors whose
// top-left input pixel is (y0, x0) — padding already subtracted — from
// one HWC image, zero outside the image. Each in-range run of a tile
// row is one contiguous conversion.
//
//dnn:hotpath
func winoGatherHWC(x []float64, src []float32, h, w, c, t, y0, x0 int) {
	b0, b1 := max(0, -x0), max(min(t, w-x0), 0)
	for a := 0; a < t; a++ {
		row := x[a*t*c:][:t*c]
		ih := y0 + a
		if ih < 0 || ih >= h || b0 >= b1 {
			clear(row)
			continue
		}
		clear(row[:b0*c])
		clear(row[b1*c:])
		seg := row[b0*c : b1*c]
		in := src[(ih*w+x0+b0)*c:][:len(seg)]
		for i, v := range in {
			seg[i] = float64(v)
		}
	}
}

// winoGatherCHW is winoGatherHWC reading one CHW image: each in-range
// tile pixel gathers its channel vector with stride H·W.
//
//dnn:hotpath
func winoGatherCHW(x []float64, src []float32, h, w, c, t, y0, x0 int) {
	hw := h * w
	b0, b1 := max(0, -x0), max(min(t, w-x0), 0)
	for a := 0; a < t; a++ {
		row := x[a*t*c:][:t*c]
		ih := y0 + a
		if ih < 0 || ih >= h || b0 >= b1 {
			clear(row)
			continue
		}
		clear(row[:b0*c])
		clear(row[b1*c:])
		for b := b0; b < b1; b++ {
			seg := row[b*c:][:c]
			in := src[ih*w+x0+b:]
			si := 0
			for ch := range seg {
				// One unsigned compare carries both bounds of the strided
				// gather for the prover.
				if uint(si) >= uint(len(in)) {
					break
				}
				seg[ch] = float64(in[si])
				si += hw
			}
		}
	}
}

// winoGatherKernel fills the leading r×r grid of x with n kernels'
// taps, lane l taking the kernel that starts at k[l*stride].
//
//dnn:hotpath
func winoGatherKernel(x []float64, k []float32, n, stride, rr int) {
	for tap := 0; tap < rr; tap++ {
		lanes := x[tap*n:][:n]
		in := k[tap:]
		si := 0
		for l := range lanes {
			if uint(si) >= uint(len(in)) {
				break
			}
			lanes[l] = float64(in[si])
			si += stride
		}
	}
}

// winoStoreLanes narrows one point's lanes into a float32 panel row.
//
//dnn:hotpath
func winoStoreLanes(dst []float32, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// winoLoadLanes widens one float32 panel row into a point's lanes.
//
//dnn:hotpath
func winoLoadLanes(dst []float64, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// winoScatterHWC writes the m×m grid of output channel vectors in y to
// one HWC output image at output pixel (y0, x0), clipped to the image:
// each tile row is one contiguous conversion.
//
//dnn:hotpath
func winoScatterHWC(dst []float32, y []float64, oh, ow, c, m, y0, x0 int) {
	nj := min(m, ow-x0)
	for i := 0; i < m && y0+i < oh; i++ {
		out := dst[((y0+i)*ow+x0)*c:][:nj*c]
		in := y[i*m*c:][:len(out)]
		for k, v := range in {
			out[k] = float32(v)
		}
	}
}

// winoScatterCHW is winoScatterHWC writing one CHW image: each output
// pixel scatters its channel vector with stride Ho·Wo.
//
//dnn:hotpath
func winoScatterCHW(dst []float32, y []float64, oh, ow, c, m, y0, x0 int) {
	ohw := oh * ow
	nj := min(m, ow-x0)
	for i := 0; i < m && y0+i < oh; i++ {
		for j := 0; j < nj; j++ {
			in := y[(i*m+j)*c:][:c]
			out := dst[(y0+i)*ow+x0+j:]
			oi := 0
			for _, v := range in {
				if uint(oi) >= uint(len(out)) {
					break
				}
				out[oi] = float32(v)
				oi += ohw
			}
		}
	}
}
