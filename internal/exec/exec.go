// Package exec runs a legalized selection plan on real tensors: the
// runtime counterpart of the paper's simple code generator (§5.2),
// which mapped PBQP solutions to calls into the primitive library. It
// also implements the non-convolution layer operators (pooling, ReLU,
// LRN, concat, FC, softmax) so whole networks execute end to end, and a
// reference executor used to verify that optimized plans compute the
// same function as the textbook network.
package exec

import (
	"fmt"
	"math"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// Weights holds the deterministic random parameters of a network.
type Weights struct {
	Kernels map[int]*conv.Kernel // conv layer id → kernel tensor
	FC      map[int][]float32    // fc layer id → out×in row-major matrix
}

// NewWeights fabricates deterministic weights for every parametric
// layer (seeded by layer id), standing in for a trained model — layer
// runtime does not depend on weight values (§2.2).
func NewWeights(net *dnn.Graph) *Weights {
	w := &Weights{Kernels: map[int]*conv.Kernel{}, FC: map[int][]float32{}}
	for _, l := range net.Layers {
		switch {
		case l.IsConv():
			k := conv.NewKernel(l.Conv.M, l.Conv.C, l.Conv.K)
			if l.Conv.Sparsity > 0 {
				k.FillSparse(int64(l.ID), l.Conv.Sparsity)
			} else {
				k.FillRandom(int64(l.ID))
			}
			w.Kernels[l.ID] = k
		case l.Kind == dnn.KindFC:
			in := inputShapeOf(net, l)
			mat := make([]float32, l.FCOut*in)
			fillRandom(mat, int64(l.ID))
			w.FC[l.ID] = mat
		}
	}
	return w
}

func inputShapeOf(net *dnn.Graph, l *dnn.Layer) int {
	p := net.Layers[net.Preds(l.ID)[0]]
	return p.OutC * p.OutH * p.OutW
}

func fillRandom(dst []float32, seed int64) {
	// xorshift-style deterministic fill, scaled to [-0.1, 0.1) to keep
	// deep activations bounded.
	x := uint64(seed)*2654435761 + 1
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = (float32(x%2000)/1000 - 1) * 0.1
	}
}

// Run executes the plan on the given input (which must match the
// network's input shape; its layout is converted as needed). It returns
// the network output tensor.
//
// No-alias contract: the returned tensor — and every intermediate Run
// produces — never shares backing storage with the caller's input.
// Identity-shaped layers (dropout, and an input layer whose layout
// already matches the plan) copy rather than alias, so mutating the
// returned output can never corrupt caller-owned tensors, and Run never
// mutates its input. RunBatch and Engine honor the same contract.
func Run(plan *selector.Plan, input *tensor.Tensor, w *Weights) (*tensor.Tensor, error) {
	net := plan.Net
	order, err := net.TopoOrder()
	if err != nil {
		return nil, err
	}
	outs := make(map[int]*tensor.Tensor, net.NumLayers())

	// fetch returns pred's output converted along the plan's legalized
	// chain for edge (pred → id).
	fetch := func(pred, id int) *tensor.Tensor {
		tns := outs[pred]
		for _, tr := range plan.Conversions[[2]int{pred, id}] {
			tns = tr.Run(tns)
		}
		return tns
	}

	var last *tensor.Tensor
	for _, id := range order {
		l := net.Layers[id]
		var out *tensor.Tensor
		switch l.Kind {
		case dnn.KindInput:
			if input.C != l.OutC || input.H != l.OutH || input.W != l.OutW {
				return nil, fmt.Errorf("exec: input %s does not match network input %d×%d×%d",
					input, l.OutC, l.OutH, l.OutW)
			}
			if input.Layout != plan.Layouts[id] {
				out = tensor.Convert(input, plan.Layouts[id])
			} else {
				// Copy-on-identity: downstream tensors must never alias
				// the caller's input.
				out = input.Clone()
			}
		case dnn.KindConv:
			in := fetch(net.Preds(id)[0], id)
			p := plan.Primitives[id]
			if in.Layout != p.In {
				return nil, fmt.Errorf("exec: layer %q: got %s input, primitive %s wants %s",
					l.Name, in.Layout, p.Name, p.In)
			}
			out = p.Run(in, w.Kernels[id], l.Conv, plan.Threads)
		case dnn.KindReLU:
			out = relu(fetch(net.Preds(id)[0], id))
		case dnn.KindMaxPool:
			out = pool(fetch(net.Preds(id)[0], id), l, true)
		case dnn.KindAvgPool:
			out = pool(fetch(net.Preds(id)[0], id), l, false)
		case dnn.KindLRN:
			out = lrn(fetch(net.Preds(id)[0], id))
		case dnn.KindConcat:
			ins := make([]*tensor.Tensor, 0, len(net.Preds(id)))
			for _, p := range net.Preds(id) {
				ins = append(ins, fetch(p, id))
			}
			out = concat(ins, plan.Layouts[id])
		case dnn.KindFC:
			out = fc(fetch(net.Preds(id)[0], id), w.FC[id], l.FCOut)
		case dnn.KindDropout:
			// Inference identity, but copy-on-identity: aliasing the
			// predecessor's tensor would let a mutation of this layer's
			// output corrupt it (and, transitively, the caller's data).
			out = fetch(net.Preds(id)[0], id).Clone()
		case dnn.KindAdd:
			ins := make([]*tensor.Tensor, 0, len(net.Preds(id)))
			for _, p := range net.Preds(id) {
				ins = append(ins, fetch(p, id))
			}
			out = add(ins, plan.Layouts[id])
		case dnn.KindSoftmax:
			out = softmax(fetch(net.Preds(id)[0], id))
		default:
			return nil, fmt.Errorf("exec: unsupported layer kind %s", l.Kind)
		}
		if out.C != l.OutC || out.H != l.OutH || out.W != l.OutW {
			return nil, fmt.Errorf("exec: layer %q produced %s, want %d×%d×%d",
				l.Name, out, l.OutC, l.OutH, l.OutW)
		}
		outs[id] = out
		last = out
	}
	return last, nil
}

// Reference executes the network with the textbook algorithm in the
// canonical layout — the correctness oracle for optimized plans.
func Reference(net *dnn.Graph, input *tensor.Tensor, w *Weights) (*tensor.Tensor, error) {
	plan, err := selector.Baseline(net, selector.Options{Prof: zeroProfiler{}})
	if err != nil {
		return nil, err
	}
	return Run(plan, input, w)
}

// zeroProfiler satisfies cost.Profiler for plan construction when only
// structure (not cost) matters.
type zeroProfiler struct{}

func (zeroProfiler) Primitive(*conv.Primitive, conv.Scenario, int, int) float64 { return 1 }
func (zeroProfiler) Transform(tensor.Transform, int, int, int, int) float64     { return 1 }
func (zeroProfiler) EpilogueSaving(*conv.Primitive, conv.Scenario, int) float64 { return 0 }

// --- layer operators (layout-agnostic via logical indexing) ---

func relu(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

func pool(in *tensor.Tensor, l *dnn.Layer, isMax bool) *tensor.Tensor {
	out := tensor.New(in.Layout, l.OutC, l.OutH, l.OutW)
	for c := 0; c < l.OutC; c++ {
		for y := 0; y < l.OutH; y++ {
			for x := 0; x < l.OutW; x++ {
				h0 := y*l.PoolStride - l.PoolPad
				w0 := x*l.PoolStride - l.PoolPad
				var acc float32
				if isMax {
					acc = float32(math.Inf(-1))
				}
				n := 0
				for dy := 0; dy < l.PoolK; dy++ {
					for dx := 0; dx < l.PoolK; dx++ {
						hy, wx := h0+dy, w0+dx
						if hy < 0 || hy >= in.H || wx < 0 || wx >= in.W {
							continue
						}
						v := in.At(c, hy, wx)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						n++
					}
				}
				if !isMax && n > 0 {
					acc /= float32(n)
				}
				out.Set(c, y, x, acc)
			}
		}
	}
	return out
}

// lrn implements Caffe's across-channel local response normalization
// with the standard AlexNet parameters (local_size=5, α=1e-4, β=0.75).
func lrn(in *tensor.Tensor) *tensor.Tensor {
	const (
		size  = 5
		alpha = 1e-4
		beta  = 0.75
	)
	out := tensor.New(in.Layout, in.C, in.H, in.W)
	half := size / 2
	for h := 0; h < in.H; h++ {
		for w := 0; w < in.W; w++ {
			for c := 0; c < in.C; c++ {
				var sum float64
				for d := -half; d <= half; d++ {
					if cc := c + d; cc >= 0 && cc < in.C {
						v := float64(in.At(cc, h, w))
						sum += v * v
					}
				}
				scale := math.Pow(1+alpha/size*sum, beta)
				out.Set(c, h, w, float32(float64(in.At(c, h, w))/scale))
			}
		}
	}
	return out
}

func concat(ins []*tensor.Tensor, layout tensor.Layout) *tensor.Tensor {
	totalC := 0
	for _, t := range ins {
		totalC += t.C
	}
	out := tensor.New(layout, totalC, ins[0].H, ins[0].W)
	base := 0
	for _, t := range ins {
		for c := 0; c < t.C; c++ {
			for h := 0; h < t.H; h++ {
				for w := 0; w < t.W; w++ {
					out.Set(base+c, h, w, t.At(c, h, w))
				}
			}
		}
		base += t.C
	}
	return out
}

// add sums the inputs elementwise (residual shortcut junction).
func add(ins []*tensor.Tensor, layout tensor.Layout) *tensor.Tensor {
	out := tensor.New(layout, ins[0].C, ins[0].H, ins[0].W)
	for c := 0; c < out.C; c++ {
		for h := 0; h < out.H; h++ {
			for w := 0; w < out.W; w++ {
				var acc float32
				for _, t := range ins {
					acc += t.At(c, h, w)
				}
				out.Set(c, h, w, acc)
			}
		}
	}
	return out
}

// fc flattens the input in logical CHW order and applies a dense layer.
func fc(in *tensor.Tensor, mat []float32, outN int) *tensor.Tensor {
	inN := in.C * in.H * in.W
	flat := make([]float32, inN)
	i := 0
	for c := 0; c < in.C; c++ {
		for h := 0; h < in.H; h++ {
			for w := 0; w < in.W; w++ {
				flat[i] = in.At(c, h, w)
				i++
			}
		}
	}
	out := tensor.New(in.Layout, outN, 1, 1)
	for o := 0; o < outN; o++ {
		var acc float32
		row := mat[o*inN : o*inN+inN]
		for j, v := range flat {
			acc += v * row[j]
		}
		out.Set(o, 0, 0, acc)
	}
	return out
}

func softmax(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Layout, in.C, in.H, in.W)
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
				out.Set(c, h, w, float32(math.Exp(float64(in.At(c, h, w))-max)/sum))
			}
		}
	}
	return out
}
