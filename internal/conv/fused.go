package conv

import (
	"fmt"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// This file holds the fused batched entry points: RunBatchFusedInto
// executes a conv with work absorbed from neighboring instructions —
// an elementwise epilogue (ReLU / residual add, the gemm.Epilogue
// enum) applied while the output stripe is still cache-resident, and
// an input-side layout conversion absorbed into the im2 patch pack so
// the standalone conversion walk disappears. Primitives with a native
// fused implementation expose it via Primitive.RunBatchFused; every
// other primitive falls back to the plain batched entry plus a
// post-pass, which preserves the instruction-count and slot-tenancy
// wins even where the cache-residency win isn't available.

// CanFuseEpilogue reports whether the primitive's batched entry
// applies the epilogue inside its own output write (the GEMM unpack
// loop), rather than via the post-pass fallback. The cost model uses
// this to price fused candidates as saved streaming traffic.
func (p *Primitive) CanFuseEpilogue() bool { return p.RunBatchFused != nil }

// CanAbsorbInput reports whether the primitive's patch pack can read
// the given input layout directly, absorbing a legalized CHW↔HWC
// conversion into the pack: im2row's patch builder can gather from
// CHW, im2col's from HWC. Blocked layouts (CHW4) keep their explicit
// conversion instructions.
func (p *Primitive) CanAbsorbInput(from tensor.Layout) bool {
	if p.RunBatchFused == nil {
		return false
	}
	return (p.In == tensor.HWC && from == tensor.CHW) ||
		(p.In == tensor.CHW && from == tensor.HWC)
}

// checkFusedBatch is checkBatch relaxed for fusion: the input layout
// may be one the primitive's pack absorbs, and the residual operand
// (when the epilogue reads one) must align elementwise with dst.
func checkFusedBatch(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario, epi gemm.Epilogue, res *tensor.Batch) {
	if in.Layout != p.In && !p.CanAbsorbInput(in.Layout) {
		panic(fmt.Sprintf("conv: %s cannot absorb input layout %s", p.Name, in.Layout))
	}
	if in.N != dst.N {
		panic(fmt.Sprintf("conv: batch size mismatch in=%d dst=%d", in.N, dst.N))
	}
	if dst.Layout != p.Out {
		panic(fmt.Sprintf("conv: %s produces %s, dst is %s", p.Name, p.Out, dst.Layout))
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
	switch epi {
	case gemm.EpiAdd, gemm.EpiAddReLU:
		if res == nil || res.Layout != dst.Layout || len(res.Data) < len(dst.Data) {
			panic(fmt.Sprintf("conv: %s epilogue %v residual does not align with dst", p.Name, epi))
		}
	case gemm.EpiBias:
		panic("conv: bias epilogue is a kernel-level capability, not a batched-program one")
	}
}

// RunBatchFusedInto executes the primitive over the minibatch with the
// given fused work: epi (with residual res for the add forms) is
// applied to dst as part of the output write, and when in.Layout
// differs from p.In the conversion is absorbed into the patch pack.
// The fused result is bitwise identical to running the plain batched
// entry followed by the separate elementwise pass — fusion only moves
// work, never changes arithmetic.
func RunBatchFusedInto(p *Primitive, dst, in *tensor.Batch, k *Kernel, s Scenario, threads int, epi gemm.Epilogue, res *tensor.Batch) {
	if epi == gemm.EpiNone && in.Layout == p.In {
		RunBatchInto(p, dst, in, k, s, threads)
		return
	}
	checkFusedBatch(p, dst, in, k, s, epi, res)
	if p.RunBatchFused != nil && (in.Layout == p.In || p.CanAbsorbInput(in.Layout)) {
		p.RunBatchFused(dst, in, k, s, threads, epi, res)
		return
	}
	// Fallback: un-absorb the conversion into a temporary batch, run
	// the plain entry, then walk the epilogue as a post-pass. Still one
	// instruction from the program's point of view.
	if in.Layout != p.In {
		tmp := tensor.NewBatch(p.In, in.N, in.C, in.H, in.W)
		parallelFor(threads, in.N, func(i int) {
			t := tmp.Image(i)
			tensor.ConvertInto(t, in.Image(i))
		})
		in = tmp
	}
	RunBatchInto(p, dst, in, k, s, threads)
	ApplyEpilogueBatch(dst, epi, res, threads)
}

// ApplyEpilogueBatch applies the epilogue to a full output batch as a
// standalone post-pass — the fallback for primitives without a native
// fused kernel.
func ApplyEpilogueBatch(dst *tensor.Batch, epi gemm.Epilogue, res *tensor.Batch, threads int) {
	if epi == gemm.EpiNone {
		return
	}
	if epi == gemm.EpiBias {
		panic("conv: bias epilogue has no layout-blind batch post-pass")
	}
	parallelFor(threads, dst.N, func(i int) {
		slab := dst.Slab(i)
		var r []float32
		if res != nil {
			r = res.Slab(i)
		}
		gemm.ApplyEpi(epi, 1, len(slab), slab, r, nil)
	})
}

// gemmRowsEpi is gemmRows with the epilogue fused into each row slab's
// output write: the packed and transB kinds run their native fused
// variants; scalar kinds apply the epilogue as a per-slab post-pass.
// Each output row belongs to exactly one slab, so the epilogue keeps
// the write-once discipline under the threaded split.
func gemmRowsEpi(kind gemmKind, threads, m, n, k int, a, b, bt, c []float32, epi gemm.Epilogue, r []float32) {
	if epi == gemm.EpiNone {
		gemmRows(kind, threads, m, n, k, a, b, bt, c)
		return
	}
	if threads > m {
		threads = m
	}
	if threads <= 1 {
		gemmSlabEpi(kind, m, n, k, a, b, bt, c, epi, r)
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
		var rs []float32
		if r != nil {
			rs = r[lo*n:]
		}
		gemmSlabEpi(kind, hi-lo, n, k, a[lo*k:], b, bt, c[lo*n:], epi, rs)
	})
}

// gemmSlabEpi runs one row slab with the plan-selected kernel variant
// and its epilogue.
func gemmSlabEpi(kind gemmKind, m, n, k int, a, b, bt, c []float32, epi gemm.Epilogue, r []float32) {
	switch kind {
	case gemmPacked:
		gemm.PackedEpi(m, n, k, a, b, c, epi, r, nil)
	case gemmTransB:
		gemm.TransBEpi(m, n, k, a, bt, c, epi, r, nil)
	default:
		gemmKernel(kind, m, n, k, a, b, bt, c)
		gemm.ApplyEpi(epi, m, n, c, r, nil)
	}
}

// epiWritebackRow copies one de-interleaved result row into its
// destination slab row with the epilogue applied in the same pass —
// the im2col N>1 writeback's fused form. src and r (when the epilogue
// reads it) are views of exactly len(dst) elements, so the paired
// indexing carries no bounds checks.
//
//dnn:hotpath
func epiWritebackRow(epi gemm.Epilogue, dst, src, r []float32) {
	src = src[:len(dst)]
	switch epi {
	case gemm.EpiReLU:
		for j, v := range src {
			if v < 0 {
				v = 0
			}
			dst[j] = v
		}
	case gemm.EpiAdd:
		r = r[:len(dst)]
		for j, v := range src {
			dst[j] = v + r[j]
		}
	case gemm.EpiAddReLU:
		r = r[:len(dst)]
		for j, v := range src {
			v += r[j]
			if v < 0 {
				v = 0
			}
			dst[j] = v
		}
	default:
		copy(dst, src)
	}
}

// im2rowPatchesFromCHWInto is im2rowPatchesInto reading CHW input: the
// patch matrix it builds is identical ((Ho·Wo)×(K²C), channel
// innermost), but each in-range tap gathers the channel vector with
// stride H·W instead of copying a contiguous one — the pack-fused form
// of a CHW→HWC conversion feeding an im2row conv.
//
//dnn:hotpath
func im2rowPatchesFromCHWInto(p []float32, in *tensor.Tensor, s Scenario) {
	oh, ow := s.OutH(), s.OutW()
	cC := s.C
	cols := s.K * s.K * cC
	hw := s.H * s.W
	data := in.Data
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			dst := p[(y*ow+x)*cols:][:cols]
			i := 0
			for kh := 0; kh < s.K; kh++ {
				ih := y*s.Stride - s.Pad + kh
				if ih < 0 || ih >= s.H {
					i += s.K * cC // whole kernel row out of range: stays zero
					continue
				}
				for kw := 0; kw < s.K; kw++ {
					iw := x*s.Stride - s.Pad + kw
					if iw >= 0 && iw < s.W {
						src := data[ih*s.W+iw:]
						d := dst[i:][:cC]
						si := 0
						for cc := range d {
							// One unsigned compare carries both bounds of
							// the strided gather for the prover.
							if uint(si) >= uint(len(src)) {
								break
							}
							d[cc] = src[si]
							si += hw
						}
					}
					i += cC
				}
			}
		}
	}
}

// im2colPatchesFromHWCIntoCols is im2colPatchesIntoCols reading HWC
// input: same (C·K²)×cols patch matrix, but each tap reads the
// channel-strided HWC pixel row — the pack-fused form of an HWC→CHW
// conversion feeding an im2col conv.
//
//dnn:hotpath
func im2colPatchesFromHWCIntoCols(p []float32, totalCols, colOff int, in *tensor.Tensor, s Scenario) {
	oh, ow := s.OutH(), s.OutW()
	sW, stride, pad := s.W, s.Stride, s.Pad
	cC := s.C
	data := in.Data
	for c := 0; c < cC; c++ {
		for kh := 0; kh < s.K; kh++ {
			for kw := 0; kw < s.K; kw++ {
				r := (c*s.K+kh)*s.K + kw
				dst := p[r*totalCols+colOff:][:oh*ow]
				for y := 0; y < oh; y++ {
					ih := y*stride - pad + kh
					if ih < 0 || ih >= s.H {
						continue // whole row out of range: stays zero
					}
					drow := dst[y*ow:][:ow]
					srcRow := data[ih*sW*cC:][:sW*cC]
					// Clip to the x range whose taps land in-bounds
					// (out-of-range taps stay zero), then walk both
					// buffers under loop-condition bounds so the strided
					// gather compiles check-free.
					x0 := 0
					if pad > kw {
						x0 = (pad - kw + stride - 1) / stride
					}
					if x0 < 0 {
						x0 = 0
					}
					x1 := (sW-1-kw+pad)/stride + 1
					if x1 > len(drow) {
						x1 = len(drow)
					}
					step := stride * cC
					si := (x0*stride-pad+kw)*cC + c
					for x := x0; x < x1; x++ {
						// One unsigned compare carries both bounds of the
						// strided gather for the prover.
						if uint(si) >= uint(len(srcRow)) {
							break
						}
						drow[x] = srcRow[si]
						si += step
					}
				}
			}
		}
	}
}
