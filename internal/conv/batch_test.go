package conv

import (
	"math"
	"strings"
	"testing"

	"pbqpdnn/internal/tensor"
)

// makeInputBatch fabricates n distinct images in the primitive's input
// layout.
func makeInputBatch(l tensor.Layout, n int, s Scenario) *tensor.Batch {
	b := tensor.NewBatch(l, n, s.C, s.H, s.W)
	for i := 0; i < n; i++ {
		b.Image(i).FillRandom(int64(100*i + 7))
	}
	return b
}

// batchScenarios is the geometry grid the batched entries are held to:
// 1×1 (the zero-copy im2row path), strided, padded, odd sizes.
func batchScenarios() []Scenario {
	return []Scenario{
		{C: 5, H: 9, W: 11, Stride: 1, K: 3, M: 7, Pad: 1},
		{C: 8, H: 12, W: 12, Stride: 1, K: 1, M: 6, Pad: 0},
		{C: 3, H: 13, W: 9, Stride: 2, K: 3, M: 4, Pad: 1},
		{C: 4, H: 10, W: 10, Stride: 1, K: 5, M: 5, Pad: 2},
	}
}

// winoBlockScenarios are wide enough that every wino2d tile size cuts a
// three-image batch's tiles into several blocks.
var winoBlockScenarios = []Scenario{
	{C: 24, H: 20, W: 20, Stride: 1, K: 3, M: 36, Pad: 1},
	{C: 24, H: 20, W: 19, Stride: 1, K: 5, M: 40, Pad: 2},
}

// TestBatchedEntriesMatchPerImageRun: every primitive carrying a
// batched implementation must compute, image for image, what its
// per-image Run computes. The batched restructure may reorder float
// work and run its pointwise stages in float32 (the wino2d GEMM), so
// the acceptance bar is the library-wide 1e-4 relative tolerance the
// engine equivalence harness uses. wino2d is held to more: its tiles'
// arithmetic depends on the layer alone, never on the thread count, so
// its output must be bitwise the same at every thread count.
func TestBatchedEntriesMatchPerImageRun(t *testing.T) {
	const n = 3
	for _, p := range Library() {
		if p.RunBatch == nil {
			continue
		}
		scenarios := batchScenarios()
		if p.Family == FamilyWinograd {
			scenarios = append(scenarios, winoBlockScenarios...)
		}
		for _, s := range scenarios {
			if !p.Supports(s) {
				continue
			}
			in := makeInputBatch(p.In, n, s)
			k := NewKernel(s.M, s.C, s.K)
			k.FillRandom(3)
			dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
			wants := make([]*tensor.Tensor, n)
			for i := range wants {
				wants[i] = p.Run(in.Image(i), k, s, 1)
			}
			var first []float32
			for _, threads := range []int{1, 2, 3} {
				RunBatchInto(p, dst, in, k, s, threads)
				for i, want := range wants {
					if !tensor.WithinRel(dst.Image(i), want, 1e-4) {
						t.Errorf("%s %s threads=%d image %d: batched diverges by %g",
							p.Name, s, threads, i, tensor.MaxRelDiff(dst.Image(i), want))
					}
				}
				if p.Family != FamilyWinograd {
					continue
				}
				if first == nil {
					first = append([]float32(nil), dst.Data...)
				} else if i := firstBitDiff(dst.Data, first); i >= 0 {
					t.Errorf("%s %s: threads=%d differs from threads=1 at element %d (%v vs %v)",
						p.Name, s, threads, i, dst.Data[i], first[i])
				}
			}
		}
	}
}

// firstBitDiff returns the first index where a and b differ bitwise,
// or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestRunBatchIntoFallback: a primitive with no batched entry runs per
// image through Run and lands in the right slabs.
func TestRunBatchIntoFallback(t *testing.T) {
	lib := Library()
	var fallbacks []*Primitive
	for _, p := range lib {
		if p.RunBatch == nil && (p.Family == FamilyDirect || p.Family == FamilyKn2) {
			fallbacks = append(fallbacks, p)
		}
	}
	if len(fallbacks) == 0 {
		t.Fatal("no fallback primitives to exercise")
	}
	s := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 3, M: 5, Pad: 1}
	tested := 0
	for _, p := range fallbacks {
		if !p.Supports(s) || p.In.BlockSize() > 0 || p.Out.BlockSize() > 0 {
			continue
		}
		in := makeInputBatch(p.In, 2, s)
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(5)
		dst := tensor.NewBatch(p.Out, 2, s.M, s.OutH(), s.OutW())
		RunBatchInto(p, dst, in, k, s, 2)
		for i := 0; i < 2; i++ {
			want := p.Run(in.Image(i), k, s, 1)
			if !tensor.AlmostEqual(dst.Image(i), want, 0) {
				t.Errorf("%s image %d: fallback differs from per-image Run", p.Name, i)
			}
		}
		tested++
		if tested >= 4 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no fallback primitive supported the test scenario")
	}
}

// TestBatchedCoverage pins that the hot families carry batched
// implementations: every im2col/im2row and wino2d entry must have one.
func TestBatchedCoverage(t *testing.T) {
	for _, p := range Library() {
		batched := p.RunBatch != nil
		wantBatched := strings.HasPrefix(p.Name, "im2col-a") || strings.HasPrefix(p.Name, "im2col-b") ||
			strings.HasPrefix(p.Name, "im2col-n") || strings.HasPrefix(p.Name, "im2row-a") ||
			strings.HasPrefix(p.Name, "im2row-b") || strings.HasPrefix(p.Name, "im2row-n") ||
			strings.HasPrefix(p.Name, "wino2d-")
		if wantBatched && !batched {
			t.Errorf("%s: expected a batched entry point", p.Name)
		}
	}
}

// TestRunBatchIntoRejectsMismatch: geometry violations must panic, not
// silently compute garbage.
func TestRunBatchIntoRejectsMismatch(t *testing.T) {
	p, err := ByName(Library(), "im2row-blk")
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{C: 4, H: 8, W: 8, Stride: 1, K: 1, M: 5, Pad: 0}
	in := makeInputBatch(p.In, 2, s)
	k := NewKernel(s.M, s.C, s.K)
	dst := tensor.NewBatch(p.Out, 3, s.M, s.OutH(), s.OutW()) // wrong N
	defer func() {
		if recover() == nil {
			t.Error("mismatched batch sizes did not panic")
		}
	}()
	RunBatchInto(p, dst, in, k, s, 1)
}
