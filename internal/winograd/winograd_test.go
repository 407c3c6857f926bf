package winograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// corr1D is the reference correlation: y_i = Σ_j d[i+j]·g[j].
func corr1D(d, g []float64) []float64 {
	m := len(d) - len(g) + 1
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := range g {
			y[i] += d[i+j] * g[j]
		}
	}
	return y
}

// corr2D is the reference 2D correlation over a full tile.
func corr2D(d []float64, t int, g []float32, r int) []float64 {
	m := t - r + 1
	y := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for a := 0; a < r; a++ {
				for b := 0; b < r; b++ {
					s += d[(i+a)*t+(j+b)] * float64(g[a*r+b])
				}
			}
			y[i*m+j] = s
		}
	}
	return y
}

var planCases = []struct{ m, r int }{
	{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}, {4, 5}, {2, 7}, {1, 3}, {3, 1},
}

func TestPlan1DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pc := range planCases {
		p := NewPlan(pc.m, pc.r)
		if p.T != pc.m+pc.r-1 {
			t.Fatalf("F(%d,%d): tile %d", pc.m, pc.r, p.T)
		}
		for trial := 0; trial < 10; trial++ {
			g := make([]float32, pc.r)
			d := make([]float64, p.T)
			gf := make([]float64, pc.r)
			for i := range g {
				g[i] = rng.Float32()*2 - 1
				gf[i] = float64(g[i])
			}
			for i := range d {
				d[i] = rng.Float64()*2 - 1
			}
			u := p.KernelTransform1D(g)
			v := p.InputTransform1D(d)
			s := make([]float64, p.T)
			for i := range s {
				s[i] = u[i] * v[i]
			}
			got := p.OutputTransform1D(s)
			want := corr1D(d, gf)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8 {
					t.Fatalf("F(%d,%d) trial %d: y[%d] = %v, want %v", pc.m, pc.r, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPlan2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, pc := range planCases {
		p := NewPlan(pc.m, pc.r)
		g := make([]float32, pc.r*pc.r)
		d := make([]float64, p.T*p.T)
		for i := range g {
			g[i] = rng.Float32()*2 - 1
		}
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		u := p.KernelTransform2D(g)
		v := p.InputTransform2D(d)
		s := make([]float64, p.T*p.T)
		for i := range s {
			s[i] = u[i] * v[i]
		}
		got := p.OutputTransform2D(s)
		want := corr2D(d, p.T, g, pc.r)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("F(%d,%d): Y[%d] = %v, want %v", pc.m, pc.r, i, got[i], want[i])
			}
		}
	}
}

// TestF23KnownShape checks the canonical F(2,3) dimensions and that the
// multiplication count matches the theory: 4 multiplies instead of 6.
func TestF23KnownShape(t *testing.T) {
	p := NewPlan(2, 3)
	if p.T != 4 || len(p.AT) != 8 || len(p.G) != 12 || len(p.BT) != 16 {
		t.Fatalf("F(2,3) dims wrong: T=%d AT=%d G=%d BT=%d", p.T, len(p.AT), len(p.G), len(p.BT))
	}
	direct, wino := p.Flops1D()
	if direct != 6 || wino != 4 {
		t.Errorf("F(2,3) flops = (%d,%d), want (6,4)", direct, wino)
	}
}

// TestLinearity: property test — the whole Winograd pipeline is linear in
// the input tile.
func TestLinearity(t *testing.T) {
	p := NewPlan(2, 3)
	g := []float32{0.5, -1, 0.25}
	u := p.KernelTransform1D(g)
	run := func(d []float64) []float64 {
		v := p.InputTransform1D(d)
		s := make([]float64, p.T)
		for i := range s {
			s[i] = u[i] * v[i]
		}
		return p.OutputTransform1D(s)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		da := make([]float64, 4)
		db := make([]float64, 4)
		for i := range da {
			da[i] = rng.Float64()*20 - 10
			db[i] = rng.Float64()*20 - 10
		}
		sum := make([]float64, 4)
		for i := range sum {
			sum[i] = da[i] + db[i]
		}
		ya, yb, ys := run(da), run(db), run(sum)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-6*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestVecTransformsMatchSandwich: for every F(m,r) the primitive
// library builds, the sparse, separable, lane-vectorised transforms
// equal the dense sandwich bitwise, lane by lane, on random finite tiles
// — including exact zeros of both signs, where a skipped zero
// coefficient or a sum started without its +0 would flip a sign bit.
func TestVecTransformsMatchSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(40)-20))
	}
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 5}} {
		p := NewPlan(mr[0], mr[1])
		tt, rr, mm := p.T*p.T, p.R*p.R, p.M*p.M
		for _, n := range []int{1, 3, 16} {
			for trial := 0; trial < 20; trial++ {
				tiles := make([][]float64, n)   // t×t input tiles
				kernels := make([][]float32, n) // r×r kernels
				x, k, tmp := make([]float64, p.VecLen(n)), make([]float64, p.VecLen(n)), make([]float64, p.VecLen(n))
				for l := 0; l < n; l++ {
					tiles[l] = make([]float64, tt)
					for i := range tiles[l] {
						tiles[l][i] = value()
						x[i*n+l] = tiles[l][i]
					}
					if trial == 0 {
						clear(tiles[l]) // an all-zero tile, as deep in the padding
						for i := 0; i < tt; i++ {
							x[i*n+l] = 0
						}
					}
					kernels[l] = make([]float32, rr)
					for i := range kernels[l] {
						kernels[l][i] = float32(value())
						k[i*n+l] = float64(kernels[l][i])
					}
				}
				y := append([]float64(nil), x...)
				p.InputTransformVec(x, tmp, n)
				p.OutputTransformVec(y, tmp, n)
				p.KernelTransformVec(k, tmp, n)
				for l := 0; l < n; l++ {
					check := func(what string, got []float64, want []float64) {
						for i, w := range want {
							if g := got[i*n+l]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("F(%d,%d) n=%d trial %d lane %d: %s[%d] = %v, sandwich %v",
									mr[0], mr[1], n, trial, l, what, i, g, w)
							}
						}
					}
					check("input", x, p.InputTransform2D(tiles[l]))
					check("output", y[:mm*n], p.OutputTransform2D(tiles[l]))
					check("kernel", k, p.KernelTransform2D(kernels[l]))
				}
			}
		}
	}
}

func TestNewPlanPanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 3}, {2, 0}, {9, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			NewPlan(bad[0], bad[1])
		}()
	}
}

func TestTransformArgChecks(t *testing.T) {
	p := NewPlan(2, 3)
	for _, f := range []func(){
		func() { p.KernelTransform1D(make([]float32, 2)) },
		func() { p.InputTransform1D(make([]float64, 3)) },
		func() { p.OutputTransform1D(make([]float64, 5)) },
		func() { p.KernelTransform2D(make([]float32, 8)) },
		func() { p.InputTransform2D(make([]float64, 15)) },
		func() { p.OutputTransform2D(make([]float64, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on wrong-size argument")
				}
			}()
			f()
		}()
	}
}

func BenchmarkF43Tile2D(b *testing.B) {
	p := NewPlan(4, 3)
	g := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	u := p.KernelTransform2D(g)
	d := make([]float64, p.T*p.T)
	for i := range d {
		d[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := p.InputTransform2D(d)
		s := make([]float64, p.T*p.T)
		for j := range s {
			s[j] = u[j] * v[j]
		}
		p.OutputTransform2D(s)
	}
}
