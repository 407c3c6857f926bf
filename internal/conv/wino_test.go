package conv

import (
	"runtime"
	"testing"

	"pbqpdnn/internal/tensor"
)

// TestGatherTile2DPadding checks the tile gatherer's zero-padding
// behaviour at all four image corners.
func TestGatherTile2DPadding(t *testing.T) {
	in := tensor.New(tensor.CHW, 1, 4, 4)
	v := float32(1)
	for h := 0; h < 4; h++ {
		for w := 0; w < 4; w++ {
			in.Set(0, h, w, v)
			v++
		}
	}
	dst := make([]float64, 16)
	// Tile anchored at output (0,0) with pad 1 reads one padded row and
	// column.
	gatherTile2D(in, 0, 0, 0, 4, 1, dst)
	if dst[0] != 0 || dst[3] != 0 || dst[12] != 0 {
		t.Error("top/left padding not zero")
	}
	if dst[5] != 1 || dst[6] != 2 {
		t.Errorf("interior wrong: %v", dst)
	}
	// Tile hanging off the bottom-right.
	gatherTile2D(in, 0, 3, 3, 4, 1, dst)
	if dst[0] != float64(in.At(0, 2, 2)) {
		t.Errorf("anchored read wrong: %v", dst[0])
	}
	for i := 0; i < 4; i++ {
		if dst[3*4+i] != 0 || dst[i*4+3] != 0 {
			t.Error("bottom/right padding not zero")
		}
	}
}

// TestWinoNonDivisibleTiles exercises output extents that are not
// multiples of the tile size (boundary tiles write partially).
func TestWinoNonDivisibleTiles(t *testing.T) {
	for _, s := range []Scenario{
		{C: 2, H: 7, W: 5, Stride: 1, K: 3, M: 3, Pad: 1},  // 7×5 out, m∤
		{C: 3, H: 9, W: 11, Stride: 1, K: 5, M: 2, Pad: 2}, // 9×11 out
		{C: 1, H: 3, W: 3, Stride: 1, K: 3, M: 1, Pad: 1},  // single partial tile
	} {
		in := tensor.New(tensor.CHW, s.C, s.H, s.W)
		in.FillRandom(int64(s.H))
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(int64(s.W))
		want := Reference(in, k, s)
		for _, p := range winoPrimitives() {
			if !p.Supports(s) {
				continue
			}
			out := p.Run(tensor.Convert(in, p.In), k, s, 2)
			if d := tensor.MaxAbsDiff(out, want); d > tolFor(s) {
				t.Errorf("%s on %s: diff %g", p.Name, s, d)
			}
		}
	}
}

// TestWinoBatchAllocsConstant pins the batched Winograd entry's
// allocations at ResNet-18's res2 shape: a warm call takes its Uᵀ and
// block buffers from pools and allocates only its fork-join bookkeeping
// — a small constant, the same at one image as at eight, never a count
// that grows with tiles or blocks.
func TestWinoBatchAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is nondeterministic under the race detector: sync.Pool drops a random 1-in-4 of Puts when race is enabled")
	}
	// One thread allocates 4 objects per call, two threads 14; the slack
	// absorbs a pooled buffer dropped by a collection mid-measurement.
	// Any per-block allocation would show as hundreds.
	const bound = 24
	s := Scenario{C: 64, H: 56, W: 56, Stride: 1, K: 3, M: 64, Pad: 1}
	k := NewKernel(s.M, s.C, s.K)
	k.FillRandom(1)
	for _, name := range []string{"wino2d-m4-k3-vf8-HWC", "wino2d-m2-k3-vf8"} {
		p, err := ByName(Library(), name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8} {
			in := makeInputBatch(p.In, n, s)
			dst := tensor.NewBatch(p.Out, n, s.M, s.OutH(), s.OutW())
			runtime.GC() // settle the set-up's garbage before measuring
			allocs := testing.AllocsPerRun(3, func() { RunBatchInto(p, dst, in, k, s, 2) })
			if allocs > bound {
				t.Errorf("%s N=%d: %v allocs per call, want ≤ %d", name, n, allocs, bound)
			}
		}
	}
}

// TestWinoMetadata: every Winograd primitive carries consistent tile
// parameters and constraints.
func TestWinoMetadata(t *testing.T) {
	for _, p := range winoPrimitives() {
		if p.WinoM < 1 || p.WinoR < 3 {
			t.Errorf("%s: bad tile F(%d,%d)", p.Name, p.WinoM, p.WinoR)
		}
		if len(p.Ks) != 1 || p.Ks[0] != p.WinoR {
			t.Errorf("%s: Ks %v inconsistent with radix %d", p.Name, p.Ks, p.WinoR)
		}
		if p.Strided {
			t.Errorf("%s: winograd cannot stride", p.Name)
		}
		if p.Workspace(Scenario{C: 8, H: 8, W: 8, Stride: 1, K: p.WinoR, M: 8, Pad: p.WinoR / 2}) <= 0 {
			t.Errorf("%s: workspace must be positive", p.Name)
		}
	}
}

// TestWino1DLessWorkspaceThan2D: for the same F(m,r) the 1D algorithm's
// resident set is about r× smaller — the ARM-vs-Intel mechanism.
func TestWino1DLessWorkspaceThan2D(t *testing.T) {
	s := Scenario{C: 64, H: 28, W: 28, Stride: 1, K: 3, M: 64, Pad: 1}
	w2 := winoWorkspace2D(4, 3)(s)
	w1 := winoWorkspace1D(4, 3)(s)
	if w1*4 > w2*3 { // at least ~4/3 smaller; actually ≈ r·t/t = 3×
		t.Errorf("1D workspace %d not sufficiently below 2D %d", w1, w2)
	}
}

// TestFFTRowHelpers covers the fft family's row extraction.
func TestFFTRowHelpers(t *testing.T) {
	k := NewKernel(1, 1, 3)
	k.Set(0, 0, 0, 0, 1)
	k.Set(0, 0, 0, 1, 2)
	k.Set(0, 0, 0, 2, 3)
	r := reverseRow(k, 0, 0, 0)
	if r[0] != 3 || r[1] != 2 || r[2] != 1 {
		t.Errorf("reverseRow = %v", r)
	}

	s := Scenario{C: 1, H: 2, W: 3, Stride: 1, K: 3, M: 1, Pad: 2}
	in := tensor.New(tensor.CHW, 1, 2, 3)
	in.Set(0, 1, 0, 7)
	row := paddedRow(in, s, 0, 1)
	if len(row) != 3+4 {
		t.Fatalf("padded row length %d", len(row))
	}
	if row[0] != 0 || row[1] != 0 || row[2] != 7 {
		t.Errorf("padding misplaced: %v", row)
	}
	// Out-of-image rows are all zero.
	for _, v := range paddedRow(in, s, 0, -1) {
		if v != 0 {
			t.Error("out-of-image row should be zero")
		}
	}
}

// TestFFTLargeKernel: the fft family's raison d'être — correctness on a
// big kernel where other fast algorithms don't apply.
func TestFFTLargeKernel(t *testing.T) {
	s := Scenario{C: 2, H: 9, W: 16, Stride: 1, K: 9, M: 2, Pad: 4}
	in := tensor.New(tensor.CHW, 2, 9, 16)
	in.FillRandom(11)
	k := NewKernel(2, 2, 9)
	k.FillRandom(12)
	want := Reference(in, k, s)
	for _, p := range fftPrimitives() {
		if !p.Supports(s) {
			continue
		}
		out := p.Run(tensor.Convert(in, p.In), k, s, 2)
		if d := tensor.MaxAbsDiff(out, want); d > tolFor(s) {
			t.Errorf("%s: K=9 diff %g", p.Name, d)
		}
	}
}
