package experiments

import (
	"strings"
	"testing"

	"pbqpdnn/internal/cost"
)

// TestExperimentalTrends asserts every §5.6–§5.8 trend claim holds on
// the regenerated data — the repository's headline reproduction gate.
func TestExperimentalTrends(t *testing.T) {
	trends, err := CheckTrends()
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) < 7 {
		t.Fatalf("only %d trends checked", len(trends))
	}
	for _, tr := range trends {
		if !tr.OK {
			t.Errorf("trend %q failed: %s", tr.Name, tr.Note)
		}
	}
}

// TestTable2Shape checks the Intel absolute-time table reproduces the
// paper's orderings and rough magnitudes (paper Table 2: AlexNet ST
// 711.75 / 231.75 / 100 / 419.565 ms).
func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("table 2 has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !(r.PBQP < r.LocalOpt && r.LocalOpt < r.Caffe && r.Caffe < r.Sum2D) {
			t.Errorf("(%s) %s: ordering violated: %+v", r.Threaded, r.Network, r)
		}
	}
	// Absolute magnitude: AlexNet sum2d single-threaded should land
	// within 2× of the paper's 711.75 ms — operation counts and clock
	// rates are real, so the model can't drift arbitrarily.
	var alexST TableRow
	for _, r := range rows {
		if r.Network == "alexnet" && r.Threaded == "S" {
			alexST = r
		}
	}
	if alexST.Sum2D < 711.75/2 || alexST.Sum2D > 711.75*2 {
		t.Errorf("AlexNet ST sum2d = %.1f ms, paper 711.75 ms (want within 2x)", alexST.Sum2D)
	}
	// Speedup ratio: paper PBQP/SUM2D ST ≈ 7.1×; allow a generous band.
	ratio := alexST.Sum2D / alexST.PBQP
	if ratio < 4 || ratio > 16 {
		t.Errorf("AlexNet ST sum2d/pbqp = %.1fx, paper 7.1x", ratio)
	}
}

// TestTable3Shape checks the ARM table (paper: AlexNet ST 2369.5 /
// 744.25 / 461 / 2341.09 ms — note Caffe ≈ sum2d on ARM ST).
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.PBQP < r.LocalOpt && r.LocalOpt < r.Caffe && r.Caffe <= r.Sum2D) {
			t.Errorf("(%s) %s: ordering violated: %+v", r.Threaded, r.Network, r)
		}
	}
	var alexST TableRow
	for _, r := range rows {
		if r.Network == "alexnet" && r.Threaded == "S" {
			alexST = r
		}
	}
	if alexST.Sum2D < 2369.5/2 || alexST.Sum2D > 2369.5*2 {
		t.Errorf("ARM AlexNet ST sum2d = %.1f ms, paper 2369.5 ms (want within 2x)", alexST.Sum2D)
	}
}

func TestTable1Traits(t *testing.T) {
	rows := Table1(cost.IntelHaswell)
	if len(rows) != 5 {
		t.Fatalf("table 1 has %d rows, want 5 families", len(rows))
	}
	byFam := map[string]Table1Row{}
	for _, r := range rows {
		byFam[r.Family] = r
	}
	// Paper Table 1 anchor points.
	if byFam["winograd"].Time != "++" {
		t.Errorf("winograd time grade = %s, want ++", byFam["winograd"].Time)
	}
	if byFam["direct"].Strided != "++" || byFam["im2"].Strided != "++" {
		t.Error("direct and im2 must support striding")
	}
	if byFam["kn2"].Strided != "--" {
		t.Errorf("kn2 strided grade = %s, want --", byFam["kn2"].Strided)
	}
	if byFam["im2"].Memory != "-" {
		t.Errorf("im2 memory grade = %s, want - (Toeplitz matrix)", byFam["im2"].Memory)
	}
	if byFam["kn2"].BadCase != "Few channels" || byFam["fft"].BadCase != "Small kernel" {
		t.Error("bad-case column mismatch")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "winograd") {
		t.Error("FormatTable1 missing rows")
	}
}

// TestFigure2Example checks the worked §3.3 example: node-only optimum
// is B,C,B at 37; adding the printed edge matrices moves the optimum
// away from B for conv1 and raises the total.
func TestFigure2Example(t *testing.T) {
	r := Figure2()
	if r.NodeOnlyCost != 37 {
		t.Errorf("node-only cost = %v, want 37", r.NodeOnlyCost)
	}
	want := []string{"B", "C", "B"}
	for i, w := range want {
		if r.NodeOnlySelection[i] != w {
			t.Errorf("node-only selection[%d] = %s, want %s", i, r.NodeOnlySelection[i], w)
		}
	}
	if r.FullCost <= 37 {
		t.Errorf("full cost %v should exceed node-only 37", r.FullCost)
	}
	if r.FullCost != 42 {
		t.Errorf("full optimum = %v, enumeration of the printed tables gives 42", r.FullCost)
	}
}

// TestFigure4Format smoke-tests the selection map rendering.
func TestFigure4Format(t *testing.T) {
	intel, arm, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(intel) != 5 || len(arm) != 5 {
		t.Fatalf("AlexNet has 5 convs; got %d/%d rows", len(intel), len(arm))
	}
	out := FormatFigure4(intel, arm)
	if !strings.Contains(out, "conv1") || !strings.Contains(out, "ARM Cortex-A57") {
		t.Error("Figure 4 rendering incomplete")
	}
	// The qualitative platform split (detail-tested in selector): conv1
	// im2 on both; Intel winograd selections 2D; ARM majority 1D.
	if intel[0].Family != "im2" || arm[0].Family != "im2" {
		t.Error("conv1 should select the im2 family on both platforms")
	}
}

func TestWholeNetworkFormatting(t *testing.T) {
	nr, err := WholeNetwork("alexnet", cost.IntelHaswell, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatNetworkResult(nr)
	for _, want := range []string{"alexnet", "pbqp", "caffe", "baseline sum2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering", want)
		}
	}
	if _, ok := nr.Get("pbqp"); !ok {
		t.Error("missing pbqp result")
	}
	if _, ok := nr.Get("nonexistent"); ok {
		t.Error("Get should miss unknown strategies")
	}
}

// TestSparsitySweep pins the §8 extension behaviour: no sparse
// primitive at 0% sparsity, sparse primitives adopted at high
// sparsity with real predicted gains, and gains monotone in sparsity.
func TestSparsitySweep(t *testing.T) {
	pts, err := SparsitySweep()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].UsedSparse {
		t.Error("dense kernel should not select a sparse primitive")
	}
	last := pts[len(pts)-1]
	if !last.UsedSparse {
		t.Errorf("99%% sparse kernel should select a sparse primitive, got %s", last.PrimaryName)
	}
	if last.SpeedupX <= 1.2 {
		t.Errorf("sparsity gain at 99%% = %.2fx, want > 1.2x", last.SpeedupX)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].SelectedMS > pts[i-1].SelectedMS*1.01 {
			t.Errorf("chosen cost should not grow with sparsity: %v", pts)
			break
		}
	}
	if out := FormatSparsitySweep(pts); !strings.Contains(out, "sparsity") {
		t.Error("sweep rendering broken")
	}
}

// TestMinibatchSweep: per-image cost should not grow with batch size
// (amortization), and total cost grows.
func TestMinibatchSweep(t *testing.T) {
	pts, err := MinibatchSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TotalMS <= pts[i-1].TotalMS {
			t.Errorf("total cost should grow with batch: %+v", pts)
		}
		if pts[i].PerImageMS > pts[i-1].PerImageMS*1.05 {
			t.Errorf("per-image cost should amortize: %+v", pts)
		}
	}
	if out := FormatMinibatchSweep(pts); !strings.Contains(out, "batch") {
		t.Error("sweep rendering broken")
	}
}
