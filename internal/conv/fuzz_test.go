package conv

import (
	"fmt"
	"math"
	"testing"

	"pbqpdnn/internal/tensor"
)

// winoTiles lists the F(m,r) tile sizes the library builds wino2d
// primitives for.
var winoTiles = [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}}

// FuzzWinoBatch is the differential fuzz harness for the batched 2D
// Winograd entry: for fuzzer-chosen tile size, layout (CHW or HWC),
// C, M, H, W ≤ 40, N ≤ 5, pad ∈ {0, r/2} and thread count, the batched
// output of every image must agree with the per-image Run and with the
// sum2d oracle within the library-wide 1e-4 relative tolerance. The
// batched entry shares no tiling with either — its tiles run in blocks
// cut across image boundaries, through separable sparse transforms and
// a tile-major GEMM — so a gather, block-boundary, clipping or panel
// indexing bug shows as divergence.
func FuzzWinoBatch(f *testing.F) {
	// Arguments: tile, hwc, C-1, M-1, H-1, W-1, N-1, pad (0 or r/2),
	// threads-1, seed.
	f.Add(uint8(0), false, uint8(39), uint8(39), uint8(39), uint8(39), uint8(1), true, uint8(1), int64(1)) // 2×400 tiles in blocks of 96: the last is partial, one straddles the images
	f.Add(uint8(2), true, uint8(39), uint8(39), uint8(13), uint8(13), uint8(4), true, uint8(2), int64(2))  // 5×9 tiles in blocks of 16
	f.Add(uint8(1), true, uint8(0), uint8(6), uint8(8), uint8(12), uint8(1), true, uint8(0), int64(3))     // C=1
	f.Add(uint8(4), false, uint8(5), uint8(0), uint8(10), uint8(7), uint8(2), true, uint8(1), int64(4))    // M=1
	f.Add(uint8(2), false, uint8(7), uint8(5), uint8(3), uint8(16), uint8(1), true, uint8(1), int64(5))    // H=4 < m=6
	f.Add(uint8(4), true, uint8(4), uint8(9), uint8(12), uint8(1), uint8(0), true, uint8(0), int64(6))     // W=2 < m=3
	f.Add(uint8(3), true, uint8(9), uint8(4), uint8(4), uint8(8), uint8(2), false, uint8(2), int64(7))     // pad 0, one output row
	f.Fuzz(func(t *testing.T, tile uint8, hwc bool, c, m, h, w, n uint8, pad bool, threads uint8, seed int64) {
		mr := winoTiles[int(tile)%len(winoTiles)]
		s := Scenario{C: 1 + int(c%40), M: 1 + int(m%40), H: 1 + int(h%40), W: 1 + int(w%40),
			Stride: 1, K: mr[1]}
		if pad {
			s.Pad = mr[1] / 2
		}
		// Lift H and W to the smallest extent with a non-empty output.
		s.H, s.W = max(s.H, s.K-2*s.Pad), max(s.W, s.K-2*s.Pad)
		name := fmt.Sprintf("wino2d-m%d-k%d-vf4", mr[0], mr[1])
		if hwc {
			name += "-HWC"
		}
		p, err := ByName(Library(), name)
		if err != nil {
			t.Fatal(err)
		}
		batch := 1 + int(n%5)
		in := tensor.NewBatch(p.In, batch, s.C, s.H, s.W)
		for i := 0; i < batch; i++ {
			in.Image(i).FillRandom(seed + int64(i))
		}
		// Weights are scaled by 1/√fan-in, as trained networks' are, so an
		// output is O(1) and the tolerance measures the kernel rather than
		// the conditioning of F(6,3) and F(3,5) under a float32 pointwise
		// stage: with weights in [-1, 1] and C = 40 those two tiles drift
		// past 1e-4 from sum2d in any float32 batched form.
		k := NewKernel(s.M, s.C, s.K)
		k.FillRandom(seed ^ 0x5eed)
		scale := float32(1 / math.Sqrt(float64(s.C*s.K*s.K)))
		for i := range k.Data {
			k.Data[i] *= scale
		}
		dst := tensor.NewBatch(p.Out, batch, s.M, s.OutH(), s.OutW())
		RunBatchInto(p, dst, in, k, s, 1+int(threads%3))
		for i := 0; i < batch; i++ {
			got := dst.Image(i)
			if want := p.Run(in.Image(i), k, s, 1); !tensor.WithinRel(got, want, 1e-4) {
				t.Fatalf("%s %s N=%d image %d: batched vs per-image Run differ by %g",
					name, s, batch, i, tensor.MaxRelDiff(got, want))
			}
			if want := Reference(in.Image(i), k, s); !tensor.WithinRel(got, want, 1e-4) {
				t.Fatalf("%s %s N=%d image %d: batched vs sum2d differ by %g",
					name, s, batch, i, tensor.MaxRelDiff(got, want))
			}
		}
	})
}
