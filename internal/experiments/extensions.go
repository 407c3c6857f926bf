package experiments

import (
	"fmt"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/selector"
)

// This file implements the paper's §8 future-work experiments, which
// the formulation supports "with the addition of a parameter": a
// kernel-sparsity sweep showing where the selector switches from dense
// to sparse primitives, and a minibatch sweep showing how the cost
// model amortizes per-call work across the batch. Both are cost-model
// predictions; nothing here executes a network.

// SparsityPoint is one row of the sparsity sweep.
type SparsityPoint struct {
	Sparsity    float64
	DenseMS     float64 // best selection with sparse primitives excluded
	SelectedMS  float64 // full-library selection
	UsedSparse  bool    // did the optimizer pick a sparse primitive
	SpeedupX    float64
	PrimaryName string
}

// sparsityNet is a mid-sized layer stack typical of a pruned model.
func sparsityNet(sparsity float64) *dnn.Graph {
	b, x := dnn.NewBuilder("pruned-net", 128, 28, 28)
	x = b.Conv(x, "c1", 128, 3, 1, 1)
	x = b.ReLU(x, "r1")
	x = b.Conv(x, "c2", 128, 3, 1, 1)
	x = b.Softmax(x, "sm")
	g := b.Graph()
	for _, id := range g.ConvLayers() {
		g.Layers[id].Conv.Sparsity = sparsity
	}
	return g
}

// SparsitySweep runs the §8 dense-vs-sparse decision across kernel
// sparsity levels on the Intel model.
func SparsitySweep() ([]SparsityPoint, error) {
	var pts []SparsityPoint
	prof := cost.NewModel(cost.IntelHaswell)
	for _, sp := range []float64{0, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99} {
		g := sparsityNet(sp)
		opts := selector.Options{Prof: prof, Threads: 1}

		full, err := selector.Select(g, opts)
		if err != nil {
			return nil, err
		}
		denseOpts := opts
		denseOpts.Lib = denseLibrary()
		dense, err := selector.Select(g, denseOpts)
		if err != nil {
			return nil, err
		}
		used := false
		name := ""
		for _, id := range g.ConvLayers() {
			p := full.Primitives[id]
			if p.Sparse {
				used = true
			}
			name = p.Name
		}
		pts = append(pts, SparsityPoint{
			Sparsity:    sp,
			DenseMS:     dense.TotalCost() * 1e3,
			SelectedMS:  full.TotalCost() * 1e3,
			UsedSparse:  used,
			SpeedupX:    dense.TotalCost() / full.TotalCost(),
			PrimaryName: name,
		})
	}
	return pts, nil
}

// denseLibrary is the primitive library with the sparsity-exploiting
// entries removed — the ablation side of the sweep.
func denseLibrary() []*conv.Primitive {
	var out []*conv.Primitive
	for _, p := range conv.Library() {
		if !p.Sparse {
			out = append(out, p)
		}
	}
	return out
}

// MinibatchPoint is one row of the §8 minibatch sweep: the cost
// model's predicted total and per-image time of the plan selected at
// that batch size.
type MinibatchPoint struct {
	Batch      int
	TotalMS    float64
	PerImageMS float64
}

// batchedNet is the sweep's workload: a two-convolution stack at a
// mid-network size.
func batchedNet() *dnn.Graph {
	b, x := dnn.NewBuilder("batched-net", 64, 28, 28)
	x = b.Conv(x, "c1", 64, 3, 1, 1)
	x = b.Conv(x, "c2", 64, 3, 1, 1)
	x = b.Softmax(x, "sm")
	return b.Graph()
}

// MinibatchSweep runs MinibatchSweepOpts at the paper-style defaults
// (4 threads, batches 1–16).
func MinibatchSweep() ([]MinibatchPoint, error) {
	return MinibatchSweepOpts(4, []int{1, 2, 4, 8, 16})
}

// MinibatchSweepOpts reports the cost model's per-image amortization,
// re-selecting the plan at each batch size (selector.SelectBatch) under
// the given thread budget.
func MinibatchSweepOpts(threads int, batches []int) ([]MinibatchPoint, error) {
	prof := cost.NewModel(cost.IntelHaswell)
	net := batchedNet()
	var pts []MinibatchPoint
	for _, batch := range batches {
		plan, err := selector.SelectBatch(net, batch, selector.Options{Prof: prof, Threads: threads})
		if err != nil {
			return nil, err
		}
		pts = append(pts, MinibatchPoint{
			Batch:      batch,
			TotalMS:    plan.TotalCost() * 1e3,
			PerImageMS: plan.CostPerImage() * 1e3,
		})
	}
	return pts, nil
}

// FormatSparsitySweep renders the sweep.
func FormatSparsitySweep(pts []SparsityPoint) string {
	var b strings.Builder
	b.WriteString("== §8 extension: dense-vs-sparse selection sweep (Intel model) ==\n")
	fmt.Fprintf(&b, "%-9s %-11s %-11s %-8s %-9s %s\n",
		"sparsity", "dense ms", "chosen ms", "gain", "sparse?", "selection")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-9.2f %-11.3f %-11.3f %-8.2f %-9v %s\n",
			p.Sparsity, p.DenseMS, p.SelectedMS, p.SpeedupX, p.UsedSparse, p.PrimaryName)
	}
	return b.String()
}

// FormatMinibatchSweep renders the sweep.
func FormatMinibatchSweep(pts []MinibatchPoint) string {
	var b strings.Builder
	b.WriteString("== §8 extension: minibatch scaling (Intel model) ==\n")
	fmt.Fprintf(&b, "%-7s %-11s %s\n", "batch", "model ms", "model ms/img")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-7d %-11.3f %.3f\n", p.Batch, p.TotalMS, p.PerImageMS)
	}
	return b.String()
}
