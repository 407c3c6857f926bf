// Package winograd implements the Winograd/Cook–Toom fast convolution
// substrate. Rather than hard-coding the handful of transform matrices
// that appear in the literature, it constructs the A, G and B matrices
// for any F(m,r) — m outputs per tile of a radix-r filter — from
// polynomial interpolation points, so the primitive library can offer
// F(2,3), F(4,3), F(2,5), F(3,5) and friends in both 1D and nested-2D
// forms (the paper implements Winograd for K=3 and K=5).
//
// The construction follows the Toom–Cook evaluation/interpolation view
// of short convolution plus the transposition principle: with V_k the
// (m+r-1)×k Vandermonde evaluation matrix over the chosen points
// (including the point at infinity), a correlation tile is
//
//	y = V_mᵀ · [ (V_r·g) ⊙ (V_t⁻ᵀ·d) ],   t = m+r-1,
//
// i.e. Aᵀ = V_mᵀ, G = V_r, Bᵀ = V_t⁻ᵀ.
package winograd

import "fmt"

// Plan holds the transform matrices for a Winograd convolution F(m,r).
// All matrices are dense row-major float64.
type Plan struct {
	M int // outputs per tile
	R int // filter radix (kernel size)
	T int // input tile size, m+r-1

	AT []float64 // m×t output (inverse) transform
	G  []float64 // t×r kernel transform
	BT []float64 // t×t input transform

	// atRows, gRows and btRows hold the same three matrices row by row
	// as their nonzero terms in increasing column order — the form the
	// lane-vectorised transforms iterate.
	atRows, gRows, btRows [][]term
}

// term is one nonzero coefficient of a transform-matrix row: coef
// multiplies column k.
type term struct {
	k    int
	coef float64
}

// defaultPoints are the interpolation points used in order; small
// magnitudes (including ±1/2) keep the Vandermonde system well
// conditioned for the tile sizes the primitive library uses (t ≤ 9).
var defaultPoints = []float64{0, 1, -1, 2, -2, 0.5, -0.5, 3, -3, 4, -4}

// NewPlan constructs the transform matrices for F(m,r). It panics if m
// or r is smaller than 1 or the required tile exceeds the supported
// point set.
func NewPlan(m, r int) *Plan {
	if m < 1 || r < 1 {
		panic(fmt.Sprintf("winograd: invalid F(%d,%d)", m, r))
	}
	t := m + r - 1
	if t-1 > len(defaultPoints) {
		panic(fmt.Sprintf("winograd: tile %d too large (max %d)", t, len(defaultPoints)+1))
	}
	pts := defaultPoints[:t-1] // finite points; the t-th is ∞

	vm := vandermonde(pts, t, m)
	vr := vandermonde(pts, t, r)
	vt := vandermonde(pts, t, t)
	vtInv := invert(vt, t)

	p := &Plan{M: m, R: r, T: t,
		AT: make([]float64, m*t),
		G:  vr,
		BT: make([]float64, t*t),
	}
	// AT = V_mᵀ
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			p.AT[j*t+i] = vm[i*m+j]
		}
	}
	// BT = V_t⁻ᵀ
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			p.BT[j*t+i] = vtInv[i*t+j]
		}
	}
	p.atRows = sparseRows(p.AT, m, t)
	p.gRows = sparseRows(p.G, t, r)
	p.btRows = sparseRows(p.BT, t, t)
	return p
}

// sparseRows lists the nonzero terms of each row of a rows×cols
// row-major matrix, in increasing column order. The rows share one
// backing array: every primitive library build makes dozens of plans.
func sparseRows(a []float64, rows, cols int) [][]term {
	nz := 0
	for _, v := range a {
		if v != 0 {
			nz++
		}
	}
	terms := make([]term, 0, nz)
	out := make([][]term, rows)
	for i := range out {
		start := len(terms)
		for k, v := range a[i*cols : (i+1)*cols] {
			if v != 0 {
				terms = append(terms, term{k: k, coef: v})
			}
		}
		out[i] = terms[start:len(terms):len(terms)]
	}
	return out
}

// vandermonde builds the rows×cols evaluation matrix over pts plus the
// point at infinity: row i is [1, p_i, p_i², …]; the final row selects
// the leading coefficient.
func vandermonde(pts []float64, rows, cols int) []float64 {
	v := make([]float64, rows*cols)
	for i := 0; i < rows-1; i++ {
		x := 1.0
		for j := 0; j < cols; j++ {
			v[i*cols+j] = x
			x *= pts[i]
		}
	}
	v[(rows-1)*cols+cols-1] = 1
	return v
}

// invert returns the inverse of the n×n matrix a via Gauss–Jordan
// elimination with partial pivoting. It panics on a singular matrix,
// which cannot occur for distinct interpolation points.
func invert(a []float64, n int) []float64 {
	m := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(m[i*2*n:], a[i*n:i*n+n])
		m[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r*2*n+col]) > abs(m[piv*2*n+col]) {
				piv = r
			}
		}
		if abs(m[piv*2*n+col]) < 1e-12 {
			panic("winograd: singular Vandermonde system")
		}
		if piv != col {
			for j := 0; j < 2*n; j++ {
				m[col*2*n+j], m[piv*2*n+j] = m[piv*2*n+j], m[col*2*n+j]
			}
		}
		d := m[col*2*n+col]
		for j := 0; j < 2*n; j++ {
			m[col*2*n+j] /= d
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r*2*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				m[r*2*n+j] -= f * m[col*2*n+j]
			}
		}
	}
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(inv[i*n:], m[i*2*n+n:i*2*n+2*n])
	}
	return inv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// matVec computes y = M·x for a rows×cols row-major matrix.
func matVec(m []float64, rows, cols int, x, y []float64) {
	for i := 0; i < rows; i++ {
		var s float64
		row := m[i*cols : i*cols+cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// KernelTransform1D returns U = G·g (length t) for a length-r kernel.
func (p *Plan) KernelTransform1D(g []float32) []float64 {
	if len(g) != p.R {
		panic(fmt.Sprintf("winograd: kernel length %d, want %d", len(g), p.R))
	}
	x := make([]float64, p.R)
	for i, v := range g {
		x[i] = float64(v)
	}
	u := make([]float64, p.T)
	matVec(p.G, p.T, p.R, x, u)
	return u
}

// InputTransform1D returns V = Bᵀ·d (length t) for a length-t tile.
func (p *Plan) InputTransform1D(d []float64) []float64 {
	if len(d) != p.T {
		panic(fmt.Sprintf("winograd: tile length %d, want %d", len(d), p.T))
	}
	v := make([]float64, p.T)
	matVec(p.BT, p.T, p.T, d, v)
	return v
}

// OutputTransform1D returns y = Aᵀ·s (length m) from the elementwise
// product s of transformed kernel and input.
func (p *Plan) OutputTransform1D(s []float64) []float64 {
	if len(s) != p.T {
		panic(fmt.Sprintf("winograd: product length %d, want %d", len(s), p.T))
	}
	y := make([]float64, p.M)
	matVec(p.AT, p.M, p.T, s, y)
	return y
}

// KernelTransform2D returns U = G·g·Gᵀ (t×t) for an r×r kernel given
// row-major.
func (p *Plan) KernelTransform2D(g []float32) []float64 {
	if len(g) != p.R*p.R {
		panic(fmt.Sprintf("winograd: kernel size %d, want %d", len(g), p.R*p.R))
	}
	gf := make([]float64, p.R*p.R)
	for i, v := range g {
		gf[i] = float64(v)
	}
	return p.sandwich(p.G, p.T, p.R, gf)
}

// InputTransform2D returns V = Bᵀ·d·B (t×t) for a t×t input tile.
func (p *Plan) InputTransform2D(d []float64) []float64 {
	if len(d) != p.T*p.T {
		panic(fmt.Sprintf("winograd: tile size %d, want %d", len(d), p.T*p.T))
	}
	return p.sandwich(p.BT, p.T, p.T, d)
}

// OutputTransform2D returns Y = Aᵀ·s·A (m×m) from the t×t elementwise
// product.
func (p *Plan) OutputTransform2D(s []float64) []float64 {
	if len(s) != p.T*p.T {
		panic(fmt.Sprintf("winograd: product size %d, want %d", len(s), p.T*p.T))
	}
	return p.sandwich(p.AT, p.M, p.T, s)
}

// sandwich computes M·x·Mᵀ where M is rows×cols and x is cols×cols.
func (p *Plan) sandwich(m []float64, rows, cols int, x []float64) []float64 {
	tmp := make([]float64, rows*cols) // M·x
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += m[i*cols+k] * x[k*cols+j]
			}
			tmp[i*cols+j] = s
		}
	}
	out := make([]float64, rows*rows) // (M·x)·Mᵀ
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += tmp[i*cols+k] * m[j*cols+k]
			}
			out[i*rows+j] = s
		}
	}
	return out
}

// The lane-vectorised 2D transforms below compute what the 2D
// transforms above compute, for n independent tiles at once (n input
// channels of one tile, say): the tile is a grid of n-vectors, point
// (i,j) holding lanes x[(i*cols+j)*n : (i*cols+j+1)*n]. Each applies
// the sandwich separably — a pass of the matrix down the columns into
// tmp, then one across the rows back into x — skipping zero
// coefficients. Every lane is computed with sandwich's own arithmetic:
// the products of each sum are added to zero in increasing k. A skipped
// term adds 0·x = ±0, which for finite x leaves the sum unchanged (a
// sum that starts at +0 can never become −0 under round-to-nearest),
// so on finite tiles every lane equals the sandwich result bitwise.
// The transforms allocate nothing: the caller owns x and tmp.

// VecLen returns the length x and tmp must have for the lane-vectorised
// transforms over n lanes: one t×t grid of n-vectors.
func (p *Plan) VecLen(n int) int { return p.T * p.T * n }

// KernelTransformVec overwrites x, whose leading r×r grid holds n
// kernels, with their t×t transforms U = G·g·Gᵀ.
func (p *Plan) KernelTransformVec(x, tmp []float64, n int) {
	p.sandwichVec(p.gRows, p.R, x, tmp, n)
}

// InputTransformVec overwrites x, a t×t grid holding n input tiles,
// with their transforms V = Bᵀ·d·B.
func (p *Plan) InputTransformVec(x, tmp []float64, n int) {
	p.sandwichVec(p.btRows, p.T, x, tmp, n)
}

// OutputTransformVec overwrites the leading m×m grid of x, a t×t grid
// holding n elementwise products, with their outputs Y = Aᵀ·s·A.
func (p *Plan) OutputTransformVec(x, tmp []float64, n int) {
	p.sandwichVec(p.atRows, p.T, x, tmp, n)
}

// sandwichVec computes M·x·Mᵀ lane by lane for the rows×cols matrix M
// given by its sparse rows: tmp = M·x (rows×cols points), then
// x = tmp·Mᵀ (rows×rows points).
func (p *Plan) sandwichVec(m [][]term, cols int, x, tmp []float64, n int) {
	if len(x) < p.VecLen(n) || len(tmp) < p.VecLen(n) {
		panic(fmt.Sprintf("winograd: vector transform over %d lanes needs %d values, got x=%d tmp=%d",
			n, p.VecLen(n), len(x), len(tmp)))
	}
	for i, row := range m {
		for j := 0; j < cols; j++ {
			sumTerms(tmp[(i*cols+j)*n:][:n], x, j, cols, n, row)
		}
	}
	rows := len(m)
	for i := 0; i < rows; i++ {
		for j, row := range m {
			sumTerms(x[(i*rows+j)*n:][:n], tmp, i*cols, 1, n, row)
		}
	}
}

// sumTerms sets dst to Σ coef·src[point base+k·step] over the terms of
// row, lane by lane, adding the products to zero in increasing k. Up to
// four terms share one pass over the lanes; grouping the additions that
// way leaves their order, and so every rounding, unchanged.
func sumTerms(dst, src []float64, base, step, n int, row []term) {
	at := func(tm term) []float64 { return src[(base+tm.k*step)*n:] }
	clear(dst)
	for ; len(row) >= 4; row = row[4:] {
		addLanes4(dst, at(row[0]), at(row[1]), at(row[2]), at(row[3]),
			row[0].coef, row[1].coef, row[2].coef, row[3].coef)
	}
	if len(row) >= 2 {
		addLanes2(dst, at(row[0]), at(row[1]), row[0].coef, row[1].coef)
		row = row[2:]
	}
	if len(row) == 1 {
		addLanes(dst, at(row[0]), row[0].coef)
	}
}

// addLanes adds one term of a sandwich sum, dst += c·s, lane by lane.
//
//dnn:hotpath
func addLanes(dst, s []float64, c float64) {
	s = s[:len(dst)]
	for l, v := range s {
		dst[l] += c * v
	}
}

// addLanes2 adds two consecutive terms, dst = dst + c0·s0 + c1·s1.
//
//dnn:hotpath
func addLanes2(dst, s0, s1 []float64, c0, c1 float64) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	for l, v := range s0 {
		dst[l] = dst[l] + c0*v + c1*s1[l]
	}
}

// addLanes4 adds four consecutive terms in order.
//
//dnn:hotpath
func addLanes4(dst, s0, s1, s2, s3 []float64, c0, c1, c2, c3 float64) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	for l, v := range s0 {
		dst[l] = dst[l] + c0*v + c1*s1[l] + c2*s2[l] + c3*s3[l]
	}
}

// Flops1D returns the number of multiplications a direct 1D tile would
// use versus the Winograd tile, as (direct, winograd); used by the cost
// model to reason about the family's arithmetic advantage.
func (p *Plan) Flops1D() (direct, wino int) { return p.M * p.R, p.T }
