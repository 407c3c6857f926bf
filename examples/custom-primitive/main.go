// Custom-primitive example: the paper's §8 extensibility claims in
// action. We register a user-supplied convolution routine — a
// pointwise (1×1) specialist from a hypothetical second library that
// only speaks the WHC layout — alongside the built-in library, and let
// the optimizer decide per layer whether crossing into the "foreign"
// library (paying the layout-conversion toll on the way in and out) is
// worth it. This is the cross-library ensemble of §8: it works because
// at least one DT-graph path connects the libraries' layouts.
//
//	go run ./examples/custom-primitive
package main

import (
	"fmt"
	"log"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// pointwiseWHC is the foreign library's 1×1 convolution: a single GEMM
// over WHC-layout activations.
func pointwiseWHC(in *tensor.Tensor, k *conv.Kernel, s conv.Scenario, threads int) *tensor.Tensor {
	out := tensor.New(tensor.WHC, s.M, s.H, s.W)
	// Kernel as M×C matrix; image as C×(W·H) logical columns.
	a := make([]float32, s.M*s.C)
	for m := 0; m < s.M; m++ {
		for c := 0; c < s.C; c++ {
			a[m*s.C+c] = k.At(m, c, 0, 0)
		}
	}
	cols := s.H * s.W
	b := make([]float32, s.C*cols)
	for w := 0; w < s.W; w++ {
		for h := 0; h < s.H; h++ {
			for c := 0; c < s.C; c++ {
				b[c*cols+w*s.H+h] = in.At(c, h, w)
			}
		}
	}
	flat := make([]float32, s.M*cols)
	gemm.Parallel(threads, s.M, cols, s.C, a, b, flat)
	for m := 0; m < s.M; m++ {
		for w := 0; w < s.W; w++ {
			for h := 0; h < s.H; h++ {
				out.Set(m, h, w, flat[m*cols+w*s.H+h])
			}
		}
	}
	return out
}

// boostedProfiler wraps the machine model, pricing the foreign
// library's JIT-compiled pointwise kernel at the throughput its vendor
// advertises (substantially above our generic GEMM). Cost sources are
// pluggable — exactly how the paper attaches *measured* times to
// foreign routines it cannot model.
type boostedProfiler struct {
	inner cost.Profiler
}

func (b boostedProfiler) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	c := b.inner.Primitive(p, s, threads, n)
	if p.Name == "ensemble-pointwise-whc" {
		return c * 0.3
	}
	return c
}

func (b boostedProfiler) Transform(tr tensor.Transform, c, h, w, n int) float64 {
	return b.inner.Transform(tr, c, h, w, n)
}

func (b boostedProfiler) EpilogueSaving(p *conv.Primitive, s conv.Scenario, n int) float64 {
	return b.inner.EpilogueSaving(p, s, n)
}

func main() {
	log.SetFlags(0)

	custom := &conv.Primitive{
		Name:   "ensemble-pointwise-whc",
		Family: conv.FamilyIm2,
		In:     tensor.WHC,
		Out:    tensor.WHC,
		VF:     8,
		Ks:     []int{1}, // pointwise only
		Workspace: func(s conv.Scenario) int64 {
			return int64(s.C)*int64(s.H)*int64(s.W)*4 + s.OutputBytes()
		},
		Run: pointwiseWHC,
	}
	lib := append(conv.Library(), custom)

	// A 1×1-heavy bottleneck network where the specialist should win.
	b, x := dnn.NewBuilder("bottlenecks", 64, 28, 28)
	x = b.Conv(x, "squeeze1", 16, 1, 1, 0)
	x = b.Conv(x, "expand1", 64, 3, 1, 1)
	x = b.Conv(x, "squeeze2", 16, 1, 1, 0)
	x = b.Conv(x, "expand2", 64, 3, 1, 1)
	x = b.Conv(x, "proj", 32, 1, 1, 0)
	x = b.Softmax(x, "prob")
	net := b.Graph()

	for _, withCustom := range []bool{false, true} {
		opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 4}
		if withCustom {
			opts.Lib = lib
			opts.Prof = boostedProfiler{inner: opts.Prof}
		}
		plan, err := selector.Select(net, opts)
		if err != nil {
			log.Fatal(err)
		}
		tag := "built-in library only"
		if withCustom {
			tag = "with foreign pointwise primitive"
		}
		fmt.Printf("== %s: %.3f ms predicted ==\n", tag, plan.TotalCost()*1e3)
		for _, id := range net.ConvLayers() {
			p := plan.Primitives[id]
			fmt.Printf("  %-10s %-26s %s→%s\n", net.Layers[id].Name, p.Name, p.In, p.Out)
		}
		fmt.Printf("  conversions: %d\n\n", len(plan.Conversions))
		if withCustom {
			// Verify the ensemble still computes the right function.
			w := exec.NewWeights(net)
			in := tensor.New(tensor.CHW, 64, 28, 28)
			in.FillRandom(3)
			got, err := exec.Run(plan, in.Clone(), w)
			if err != nil {
				log.Fatal(err)
			}
			want, err := exec.Reference(net, in, w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("max |ensemble - reference| = %.2e (tolerance 1e-3)\n",
				tensor.MaxAbsDiff(got, want))
			if !tensor.AlmostEqual(got, want, 1e-3) {
				log.Fatal("ensemble plan diverged from reference!")
			}
		}
	}
}
