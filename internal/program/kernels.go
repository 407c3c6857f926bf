package program

// This file holds the compiled executor's layer operators, moved here
// from the exec package so the Program IR owns everything an
// instruction needs short of the weights. Unlike the oracle operators
// in exec — which go through At/Set logical indexing so they are
// obviously correct in every layout — these write into caller-provided
// destination tensors (slot-backed, recycled, or in-place aliases of an
// input) and carry layout-specialized fast paths that walk contiguous
// slabs for the CHW and HWC layouts. Every fast path is tested against
// its oracle counterpart across layouts in the exec package's tests.
//
// In-place contract: ReLUInto and AddInto tolerate dst
// sharing storage with their (first) input — they read each element
// before overwriting it and never read across elements. SoftmaxInto is
// likewise alias-safe (the max/sum passes complete before any write).
// LRNInto, PoolInto, ConcatInto and FCInto must NOT be run in place:
// they read neighborhoods or reshape, so writes would corrupt pending
// reads.

import (
	"math"

	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/tensor"
)

// ReLUInto clamps negatives elementwise. Layout-independent: dst and in
// share a layout, and the padding lanes of blocked layouts hold zeros,
// which relu maps to zero. The destination is clamped to the source
// length up front so the loop indexes two same-length slices with no
// bounds checks.
//
//dnn:hotpath
func ReLUInto(dst, in *tensor.Tensor) {
	d := dst.Data[:len(in.Data)]
	for i, v := range in.Data {
		if v < 0 {
			d[i] = 0
		} else {
			d[i] = v
		}
	}
}

// AddInto sums the inputs elementwise. When every input shares dst's
// layout — the legalized plan guarantees it — the physical slabs
// correspond and the sum runs over contiguous memory. dst may alias
// ins[0] (in-place accumulation) but no other input.
//
//dnn:hotpath
func AddInto(dst *tensor.Tensor, ins []*tensor.Tensor) {
	same := true
	for _, t := range ins {
		if t.Layout != dst.Layout {
			same = false
			break
		}
	}
	if same {
		copy(dst.Data, ins[0].Data)
		for _, t := range ins[1:] {
			d := dst.Data[:len(t.Data)]
			for i, v := range t.Data {
				d[i] += v
			}
		}
		return
	}
	for c := 0; c < dst.C; c++ {
		for h := 0; h < dst.H; h++ {
			for w := 0; w < dst.W; w++ {
				var acc float32
				for _, t := range ins {
					acc += t.At(c, h, w)
				}
				dst.Set(c, h, w, acc)
			}
		}
	}
}

// PoolInto pools in into dst with the layer's geometry, specializing
// the channel-planar CHW layout (window walks one contiguous plane per
// channel) and the channels-last HWC layout (window cells are
// contiguous C-runs).
//
//dnn:hotpath
func PoolInto(dst, in *tensor.Tensor, l *dnn.Layer, isMax bool) {
	switch {
	case in.Layout == tensor.CHW && dst.Layout == tensor.CHW:
		poolCHW(dst, in, l, isMax)
	case in.Layout == tensor.HWC && dst.Layout == tensor.HWC:
		poolHWC(dst, in, l, isMax)
	default:
		poolGeneric(dst, in, l, isMax)
	}
}

//dnn:hotpath
func poolCHW(dst, in *tensor.Tensor, l *dnn.Layer, isMax bool) {
	inHW, outHW := in.H*in.W, l.OutH*l.OutW
	for c := 0; c < l.OutC; c++ {
		src := in.Data[c*inHW : (c+1)*inHW]
		out := dst.Data[c*outHW : (c+1)*outHW]
		di := 0
		for y := 0; y < l.OutH; y++ {
			h0 := y*l.PoolStride - l.PoolPad
			hLo, hHi := clampWindow(h0, l.PoolK, in.H)
			for x := 0; x < l.OutW; x++ {
				w0 := x*l.PoolStride - l.PoolPad
				wLo, wHi := clampWindow(w0, l.PoolK, in.W)
				var acc float32
				if isMax {
					acc = float32(math.Inf(-1))
				}
				for hy := hLo; hy < hHi; hy++ {
					row := src[hy*in.W : hy*in.W+in.W]
					for wx := wLo; wx < wHi; wx++ {
						v := row[wx]
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
					}
				}
				if n := (hHi - hLo) * (wHi - wLo); !isMax && n > 0 {
					acc /= float32(n)
				}
				out[di] = acc
				di++
			}
		}
	}
}

//dnn:hotpath
func poolHWC(dst, in *tensor.Tensor, l *dnn.Layer, isMax bool) {
	C := in.C
	for y := 0; y < l.OutH; y++ {
		h0 := y*l.PoolStride - l.PoolPad
		hLo, hHi := clampWindow(h0, l.PoolK, in.H)
		for x := 0; x < l.OutW; x++ {
			w0 := x*l.PoolStride - l.PoolPad
			wLo, wHi := clampWindow(w0, l.PoolK, in.W)
			out := dst.Data[(y*l.OutW+x)*C : (y*l.OutW+x)*C+C]
			if isMax {
				negInf := float32(math.Inf(-1))
				for c := range out {
					out[c] = negInf
				}
				for hy := hLo; hy < hHi; hy++ {
					for wx := wLo; wx < wHi; wx++ {
						run := in.Data[(hy*in.W+wx)*C : (hy*in.W+wx)*C+C]
						for c, v := range run {
							if v > out[c] {
								out[c] = v
							}
						}
					}
				}
				continue
			}
			for c := range out {
				out[c] = 0
			}
			for hy := hLo; hy < hHi; hy++ {
				for wx := wLo; wx < wHi; wx++ {
					run := in.Data[(hy*in.W+wx)*C : (hy*in.W+wx)*C+C]
					for c, v := range run {
						out[c] += v
					}
				}
			}
			// Divide (not multiply-by-reciprocal) to stay bitwise
			// identical to the oracle operator.
			if n := (hHi - hLo) * (wHi - wLo); n > 0 {
				for c := range out {
					out[c] /= float32(n)
				}
			}
		}
	}
}

// clampWindow intersects the window [start, start+k) with [0, limit).
func clampWindow(start, k, limit int) (lo, hi int) {
	lo, hi = start, start+k
	if lo < 0 {
		lo = 0
	}
	if hi > limit {
		hi = limit
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func poolGeneric(dst, in *tensor.Tensor, l *dnn.Layer, isMax bool) {
	for c := 0; c < l.OutC; c++ {
		for y := 0; y < l.OutH; y++ {
			for x := 0; x < l.OutW; x++ {
				h0 := y*l.PoolStride - l.PoolPad
				w0 := x*l.PoolStride - l.PoolPad
				hLo, hHi := clampWindow(h0, l.PoolK, in.H)
				wLo, wHi := clampWindow(w0, l.PoolK, in.W)
				var acc float32
				if isMax {
					acc = float32(math.Inf(-1))
				}
				for hy := hLo; hy < hHi; hy++ {
					for wx := wLo; wx < wHi; wx++ {
						v := in.At(c, hy, wx)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
					}
				}
				if n := (hHi - hLo) * (wHi - wLo); !isMax && n > 0 {
					acc /= float32(n)
				}
				dst.Set(c, y, x, acc)
			}
		}
	}
}

// lrnSize/lrnAlpha are the oracle's fixed AlexNet LRN parameters
// (β = 0.75 is baked into lrnScale's square-root form).
const (
	lrnSize  = 5
	lrnAlpha = 1e-4
)

// lrnScale is the LRN divisor (1 + α/size·Σv²)^0.75, computed as
// t^½·t^¼ — two hardware square roots per element instead of a
// math.Pow call, which profiled as the bulk of every LRN layer's
// runtime. The square-root form is the same real number to ~2 ulp in
// float64, far below the float32 results it divides into.
func lrnScale(sum float64) float64 {
	s := math.Sqrt(1 + lrnAlpha/lrnSize*sum)
	return s * math.Sqrt(s)
}

// LRNInto applies across-channel LRN with the oracle's fixed AlexNet
// parameters. The HWC path is the hot one (the selector's plans keep
// conv→LRN chains in HWC): each pixel's channels are contiguous, so
// the squared-sum window slides along the pixel row — two
// multiply-adds per element however wide the window. CHW keeps the
// strided directly-indexed column walk; anything else goes through
// the layout-blind accessors.
//
//dnn:hotpath
func LRNInto(dst, in *tensor.Tensor) {
	half := lrnSize / 2
	if in.Layout == tensor.HWC && dst.Layout == tensor.HWC {
		cC := in.C
		for p := 0; p < in.H*in.W; p++ {
			src := in.Data[p*cC:][:cC]
			d := dst.Data[p*cC:][:cC]
			var sum float64
			lead := half + 1
			if lead > cC {
				lead = cC
			}
			for cc := 0; cc < lead; cc++ {
				v := float64(src[cc])
				sum += v * v
			}
			for c := 0; c < cC; c++ {
				d[c] = float32(float64(src[c]) / lrnScale(sum))
				if nc := c + half + 1; nc < cC {
					v := float64(src[nc])
					sum += v * v
				}
				if oc := c - half; oc >= 0 {
					v := float64(src[oc])
					sum -= v * v
				}
			}
		}
		return
	}
	if in.Layout == tensor.CHW && dst.Layout == tensor.CHW {
		plane := in.H * in.W
		for off := 0; off < plane; off++ {
			for c := 0; c < in.C; c++ {
				var sum float64
				lo, hi := clampWindow(c-half, lrnSize, in.C)
				for cc := lo; cc < hi; cc++ {
					v := float64(in.Data[cc*plane+off])
					sum += v * v
				}
				dst.Data[c*plane+off] = float32(float64(in.Data[c*plane+off]) / lrnScale(sum))
			}
		}
		return
	}
	for h := 0; h < in.H; h++ {
		for w := 0; w < in.W; w++ {
			for c := 0; c < in.C; c++ {
				var sum float64
				lo, hi := clampWindow(c-half, lrnSize, in.C)
				for cc := lo; cc < hi; cc++ {
					v := float64(in.At(cc, h, w))
					sum += v * v
				}
				dst.Set(c, h, w, float32(float64(in.At(c, h, w))/lrnScale(sum)))
			}
		}
	}
}

// ConcatInto concatenates the inputs along channels. In CHW the inputs'
// payloads are whole contiguous slabs laid end to end; in HWC each
// pixel's destination row is the inputs' C-runs laid end to end.
//
//dnn:hotpath
func ConcatInto(dst *tensor.Tensor, ins []*tensor.Tensor) {
	same := true
	for _, t := range ins {
		if t.Layout != dst.Layout {
			same = false
			break
		}
	}
	switch {
	case same && dst.Layout == tensor.CHW:
		off := 0
		for _, t := range ins {
			off += copy(dst.Data[off:], t.Data)
		}
	case same && dst.Layout == tensor.HWC:
		hw := dst.H * dst.W
		base := 0
		for _, t := range ins {
			for p := 0; p < hw; p++ {
				copy(dst.Data[p*dst.C+base:p*dst.C+base+t.C], t.Data[p*t.C:(p+1)*t.C])
			}
			base += t.C
		}
	default:
		base := 0
		for _, t := range ins {
			for c := 0; c < t.C; c++ {
				for h := 0; h < t.H; h++ {
					for w := 0; w < t.W; w++ {
						dst.Set(base+c, h, w, t.At(c, h, w))
					}
				}
			}
			base += t.C
		}
	}
}

// FCInto applies a dense layer. In CHW the logical flatten order equals
// the storage order, so the input payload is used directly with no
// copy. The 1×1-spatial output indexes as Data[o] in every layout.
func FCInto(dst, in *tensor.Tensor, mat []float32, outN int) {
	inN := in.C * in.H * in.W
	var flat []float32
	if in.Layout == tensor.CHW {
		flat = in.Data
	} else {
		flat = make([]float32, inN)
		i := 0
		for c := 0; c < in.C; c++ {
			for h := 0; h < in.H; h++ {
				for w := 0; w < in.W; w++ {
					flat[i] = in.At(c, h, w)
					i++
				}
			}
		}
	}
	fcApply(dst.Data, flat, mat, outN, inN)
}

// fcApply is FCInto's arithmetic core: dst[o] = mat-row(o)·flat. Kept
// separate from the layout dispatch (which may allocate a flatten
// buffer) so the dot-product loop is allocation-free and, with the
// weight row re-sliced to flat's length, carries no bounds checks.
//
//dnn:hotpath
func fcApply(dst, flat, mat []float32, outN, inN int) {
	fl := flat[:inN]
	for o := 0; o < outN; o++ {
		var acc float32
		row := mat[o*inN:][:inN]
		for j, v := range fl {
			acc += v * row[j]
		}
		dst[o] = acc
	}
}

// SoftmaxInto normalizes across channels at each spatial position,
// specializing HWC (each pixel is one contiguous C-run) and CHW (the
// channel column has a fixed plane stride).
//
//dnn:hotpath
func SoftmaxInto(dst, in *tensor.Tensor) {
	switch {
	case in.Layout == tensor.HWC && dst.Layout == tensor.HWC:
		C := in.C
		for p := 0; p < in.H*in.W; p++ {
			softmaxRun(dst.Data[p*C:(p+1)*C], in.Data[p*C:(p+1)*C], 1)
		}
	case in.Layout == tensor.CHW && dst.Layout == tensor.CHW:
		plane := in.H * in.W
		for off := 0; off < plane; off++ {
			softmaxRun(dst.Data[off:off+(in.C-1)*plane+1], in.Data[off:off+(in.C-1)*plane+1], plane)
		}
	default:
		for h := 0; h < in.H; h++ {
			for w := 0; w < in.W; w++ {
				max := math.Inf(-1)
				for c := 0; c < in.C; c++ {
					if v := float64(in.At(c, h, w)); v > max {
						max = v
					}
				}
				var sum float64
				for c := 0; c < in.C; c++ {
					sum += math.Exp(float64(in.At(c, h, w)) - max)
				}
				for c := 0; c < in.C; c++ {
					dst.Set(c, h, w, float32(math.Exp(float64(in.At(c, h, w))-max)/sum))
				}
			}
		}
	}
}

// softmaxRun normalizes one channel column given as a strided slice
// (stride 1 for HWC runs, the plane size for CHW columns). The slice
// covers exactly the elements {0, stride, 2·stride, …}.
//
//dnn:hotpath
func softmaxRun(dst, src []float32, stride int) {
	max := math.Inf(-1)
	for i := 0; i < len(src); i += stride {
		if v := float64(src[i]); v > max {
			max = v
		}
	}
	var sum float64
	for i := 0; i < len(src); i += stride {
		sum += math.Exp(float64(src[i]) - max)
	}
	for i := 0; i < len(src); i += stride {
		dst[i] = float32(math.Exp(float64(src[i])-max) / sum)
	}
}
