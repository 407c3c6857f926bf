package program

import (
	"strings"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/selector"
)

func compileBatch(t *testing.T, name string, threads, batch int) *Program {
	t.Helper()
	g, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.Select(g, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileBatch(plan, batch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompileBatchSlotsConvOutputs: at every batch size, convolution
// outputs included, every value but the network output lives in a
// planned slot (in-place donees in their donor's), and the output stays
// a fresh allocation — the only bytes outside the slot frame.
func TestCompileBatchSlotsConvOutputs(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		p := compileBatch(t, "googlenet", 4, n)
		if p.Batch != n {
			t.Fatalf("batch field %d, want %d", p.Batch, n)
		}
		convs := 0
		for i := range p.Instrs {
			ins := &p.Instrs[i]
			if i == p.Output {
				continue
			}
			if ins.Slot == NoSlot {
				t.Errorf("batch %d: %s instr %q is unslotted", n, ins.Op, ins.Name)
			}
			if ins.Op == OpConv {
				convs++
			}
		}
		if convs == 0 {
			t.Errorf("batch %d: no slotted conv outputs", n)
		}
		out := &p.Instrs[p.Output]
		if out.Slot != NoSlot || out.Donor >= 0 {
			t.Errorf("batch %d: output is not a fresh allocation", n)
		}
		if want := out.Bytes() * int64(n); p.Stats.DynamicPeakBytes != want {
			t.Errorf("batch %d: DynamicPeakBytes = %d, want the output's %d", n, p.Stats.DynamicPeakBytes, want)
		}
	}
}

// TestBatchStatsScaleWithN pins the satellite fix: reported slot and
// peak bytes must describe the batch actually planned, not batch 1.
func TestBatchStatsScaleWithN(t *testing.T) {
	p8 := compileBatch(t, "alexnet", 4, 8)
	var slotSum int64
	for _, c := range p8.SlotCap {
		slotSum += int64(c) * 4
	}
	if want := slotSum * 8; p8.Stats.SlotBytes != want {
		t.Errorf("SlotBytes = %d, want %d (slot capacities × batch)", p8.Stats.SlotBytes, want)
	}
	if p8.Stats.Batch != 8 {
		t.Errorf("Stats.Batch = %d, want 8", p8.Stats.Batch)
	}
	if p8.Stats.PeakBytes != p8.Stats.SlotBytes+p8.Stats.DynamicPeakBytes {
		t.Error("PeakBytes is not SlotBytes + DynamicPeakBytes")
	}
	// NaiveBytes for N images is N × the per-image sum.
	p1 := compileBatch(t, "alexnet", 4, 1)
	if p8.Stats.NaiveBytes != 8*p1.Stats.NaiveBytes {
		t.Errorf("NaiveBytes = %d, want %d", p8.Stats.NaiveBytes, 8*p1.Stats.NaiveBytes)
	}
}

// TestBatchSourceReportsBatchScaledBytes: the listing must carry the
// batch size and batch-scaled memory plan.
func TestBatchSourceReportsBatchScaledBytes(t *testing.T) {
	p := compileBatch(t, "alexnet", 4, 4)
	src := p.Source()
	for _, want := range []string{"batch 4", "/image]", "for batch 4"} {
		if !strings.Contains(src, want) {
			t.Errorf("batched listing missing %q", want)
		}
	}
	p1 := compileBatch(t, "alexnet", 4, 1)
	if !strings.Contains(p1.Source(), "batch 1") {
		t.Error("batch-1 listing missing batch annotation")
	}
}

// TestCompileBatchRejectsBadN: zero and negative batch sizes fail.
func TestCompileBatchRejectsBadN(t *testing.T) {
	g, err := models.Build("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.Select(g, selector.Options{Prof: cost.NewModel(cost.IntelHaswell)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3} {
		if _, err := CompileBatch(plan, n); err == nil {
			t.Errorf("CompileBatch accepted batch %d", n)
		}
	}
}

// TestCompileBatchBucketPlans: a plan selected for one batch bucket
// compiles at exactly that bucket and is rejected at any other, while a
// batch-agnostic (Select) plan compiles at every bucket — the seam that
// keeps a serving registry from executing bucket B against bucket A's
// optimization.
func TestCompileBatchBucketPlans(t *testing.T) {
	g, err := models.Build("micronet")
	if err != nil {
		t.Fatal(err)
	}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 1}
	b4, err := selector.SelectBatch(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileBatch(b4, 4); err != nil {
		t.Errorf("batch-4 plan at bucket 4: %v", err)
	}
	for _, n := range []int{1, 2, 8} {
		if _, err := CompileBatch(b4, n); err == nil {
			t.Errorf("batch-4 plan compiled at bucket %d; CheckBatch should reject the mismatch", n)
		}
	}
	agnostic, err := selector.Select(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		if _, err := CompileBatch(agnostic, n); err != nil {
			t.Errorf("batch-agnostic plan at bucket %d: %v", n, err)
		}
	}
}
