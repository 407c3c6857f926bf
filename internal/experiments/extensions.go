package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// This file implements the paper's §8 future-work experiments, which
// the formulation supports "with the addition of a parameter": a
// kernel-sparsity sweep showing where the selector switches from dense
// to sparse primitives, and a minibatch sweep showing per-layer batch
// scaling.

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

// MinibatchPoint is one row of the §8 minibatch sweep. TotalMS and
// PerImageMS are the cost model's predictions for the
// batch-parameterized plan; WallTotalMS and WallPerImageMS are
// measured wall-clock times of the real batched execution engine
// (exec.Engine.RunBatch) reusing one legalized plan across the
// minibatch.
type MinibatchPoint struct {
	Batch          int
	TotalMS        float64
	PerImageMS     float64
	WallTotalMS    float64
	WallPerImageMS float64
}

// batchSweepReps is how many timed runs each plansweep and fusesweep
// measurement takes; the recorded figure is the minimum. Per-commit CI
// archives these records, and on shared runners a single timed
// iteration can swing tens of percent — min-of-k keeps consecutive
// commits' artifacts comparable.
const batchSweepReps = 3

// minWallNs runs fn reps times and returns the minimum wall time in
// nanoseconds.
func minWallNs(reps int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best, nil
}

// batchedNet is the sweep's workload: a two-convolution stack at a
// mid-network size. batch parameterizes the cost model; execution
// measures the real batched engine on an equally sized minibatch.
func batchedNet(batch int) *dnn.Graph {
	b, x := dnn.NewBuilder("batched-net", 64, 28, 28)
	x = b.Conv(x, "c1", 64, 3, 1, 1)
	x = b.Conv(x, "c2", 64, 3, 1, 1)
	x = b.Softmax(x, "sm")
	g := b.Graph()
	for _, id := range g.ConvLayers() {
		g.Layers[id].Conv.Batch = batch
	}
	return g
}

// MinibatchSweep runs MinibatchSweepOpts at the paper-style defaults
// (4 threads, batches 1–16).
func MinibatchSweep() ([]MinibatchPoint, error) {
	return MinibatchSweepOpts(4, []int{1, 2, 4, 8, 16})
}

// MinibatchSweepOpts scales the batch parameter and reports per-image
// amortization: predicted by the cost model (plans re-selected per
// batch-parameterized graph) and measured by executing the real
// batched engine on the minibatch. One engine — and thus one warm
// buffer arena — serves all batch sizes, mirroring a serving process.
func MinibatchSweepOpts(threads int, batches []int) ([]MinibatchPoint, error) {
	prof := cost.NewModel(cost.IntelHaswell)

	// The executed plan: batch-free graph (the cost model's batch
	// parameter varies per point; execution varies the real minibatch),
	// selected once and reused across every batch size. One batched
	// engine sized to the largest swept batch serves every point, so
	// smaller batches run against the same warm slot frame.
	execNet := batchedNet(0)
	execPlan, err := selector.Select(execNet, selector.Options{Prof: prof, Threads: threads})
	if err != nil {
		return nil, err
	}
	maxBatch := 1
	for _, b := range batches {
		if b > maxBatch {
			maxBatch = b
		}
	}
	w := exec.NewWeights(execNet)
	eng, err := exec.NewEngineBatch(execPlan, w, maxBatch)
	if err != nil {
		return nil, err
	}
	warm := makeBatch(execNet, 1)
	if _, err := eng.RunBatch(warm); err != nil { // warm the arena
		return nil, err
	}

	var pts []MinibatchPoint
	for _, batch := range batches {
		g := batchedNet(batch)
		plan, err := selector.Select(g, selector.Options{Prof: prof, Threads: threads})
		if err != nil {
			return nil, err
		}
		inputs := makeBatch(execNet, batch)
		start := time.Now()
		if _, err := eng.RunBatch(inputs); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds() * 1e3
		pts = append(pts, MinibatchPoint{
			Batch:          batch,
			TotalMS:        plan.TotalCost() * 1e3,
			PerImageMS:     plan.TotalCost() * 1e3 / float64(batch),
			WallTotalMS:    wall,
			WallPerImageMS: wall / float64(batch),
		})
	}
	return pts, nil
}

// makeBatch fabricates n deterministic input images for the network.
func makeBatch(g *dnn.Graph, n int) []*tensor.Tensor {
	l := g.Layers[0]
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = tensor.New(tensor.CHW, l.OutC, l.OutH, l.OutW)
		ins[i].FillRandom(int64(i + 1))
	}
	return ins
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
	b.WriteString("== §8 extension: minibatch scaling (Intel model + measured batched engine) ==\n")
	fmt.Fprintf(&b, "%-7s %-11s %-14s %-11s %s\n",
		"batch", "model ms", "model ms/img", "wall ms", "wall ms/img")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-7d %-11.3f %-14.3f %-11.3f %.3f\n",
			p.Batch, p.TotalMS, p.PerImageMS, p.WallTotalMS, p.WallPerImageMS)
	}
	return b.String()
}
