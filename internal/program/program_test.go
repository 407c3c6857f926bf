package program

import (
	"strings"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

func compile(t *testing.T, net *dnn.Graph, threads int) *Program {
	t.Helper()
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileBatch(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compileNoFuse(t *testing.T, net *dnn.Graph, threads int) *Program {
	t.Helper()
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileBatchNoFuse(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// inceptionNet is a small inception-style DAG with parallel branches, a
// residual add and every wildcard operator — the planner's obstacle
// course.
func inceptionNet() *dnn.Graph {
	b, x := dnn.NewBuilder("planner-dag", 3, 20, 20)
	x = b.Conv(x, "stem", 8, 3, 1, 1)
	x = b.ReLU(x, "stem-relu")
	x = b.LRN(x, "stem-lrn")
	x = b.MaxPool(x, "pool1", 2, 2, 0)

	b1 := b.Conv(x, "b1/1x1", 4, 1, 1, 0)
	b1 = b.ReLU(b1, "b1/relu")
	b2 := b.Conv(x, "b2/reduce", 4, 1, 1, 0)
	b2 = b.Conv(b2, "b2/3x3", 8, 3, 1, 1)
	b3 := b.AvgPool(x, "b3/pool", 3, 1, 1)
	b3 = b.Conv(b3, "b3/proj", 4, 1, 1, 0)
	x = b.Concat("cat", b1, b2, b3)

	y := b.Conv(x, "res/conv", 16, 3, 1, 1)
	x = b.Add("res/add", y, x)
	x = b.ReLU(x, "res/relu")
	x = b.Dropout(x, "drop")
	x = b.FC(x, "fc", 10)
	x = b.Softmax(x, "prob")
	_ = x
	return b.Graph()
}

func TestCompileStructure(t *testing.T) {
	for _, threads := range []int{1, 4} {
		p := compile(t, inceptionNet(), threads)
		net := p.Plan.Net
		// One instruction per layer plus one per legalized edge, minus
		// what the fusion pass folded away.
		wantConv := 0
		for _, chain := range p.Plan.Conversions {
			if len(chain) > 0 {
				wantConv++
			}
		}
		unfused := net.NumLayers() + wantConv
		if p.Stats.UnfusedInstructions != unfused {
			t.Errorf("threads=%d: unfused baseline %d instructions, want %d layers + %d conversions",
				threads, p.Stats.UnfusedInstructions, net.NumLayers(), wantConv)
		}
		want := unfused - p.Stats.FusedEpilogues - p.Stats.FusedConversions
		if got := len(p.Instrs); got != want {
			t.Errorf("threads=%d: %d instructions, want %d (%d unfused - %d epilogues - %d conversions)",
				threads, got, want, unfused, p.Stats.FusedEpilogues, p.Stats.FusedConversions)
		}
		if p.Stats.Conversions != wantConv-p.Stats.FusedConversions {
			t.Errorf("stats count %d conversions, plan has %d of which %d absorbed",
				p.Stats.Conversions, wantConv, p.Stats.FusedConversions)
		}
		// The planner DAG has three fusable epilogues: conv+relu on the
		// stem and branch 1, and the residual conv+add+relu tail.
		if p.Stats.FusedEpilogues < 4 {
			t.Errorf("threads=%d: only %d epilogue layers fused", threads, p.Stats.FusedEpilogues)
		}
		// The output instruction is the last topological layer and a
		// fresh allocation.
		out := &p.Instrs[p.Output]
		if out.Layer.Kind != dnn.KindSoftmax {
			t.Errorf("output instruction is %s, want the softmax layer", out.Layer.Kind)
		}
		if out.Slot != NoSlot || out.Donor >= 0 {
			t.Errorf("output instruction must be fresh: slot %d donor %d", out.Slot, out.Donor)
		}
	}
}

// TestSlotReuse pins the headline property of the static memory plan:
// liveness-based assignment packs the wildcard intermediates of a big
// DAG into far fewer slots than instructions, and at least one slot has
// multiple tenants.
func TestSlotReuse(t *testing.T) {
	g, err := models.Build("googlenet")
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, g, 4)
	slotted := 0
	tenants := map[int]int{}
	for i := range p.Instrs {
		if p.Instrs[i].Slot >= 0 && p.Instrs[i].Donor < 0 {
			slotted++
			tenants[p.Instrs[i].Slot]++
		}
	}
	// The acceptance bound: peak slot count strictly below the layer
	// count (GoogLeNet has ~140 layers; the plan should need a small
	// fraction of that).
	if len(p.SlotCap) >= g.NumLayers() {
		t.Errorf("googlenet plan uses %d slots for %d layers — no reuse", len(p.SlotCap), g.NumLayers())
	}
	if slotted <= len(p.SlotCap) {
		t.Errorf("no slot has more than one tenant (%d tenancies in %d slots)", slotted, len(p.SlotCap))
	}
	reused := 0
	for _, n := range tenants {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no slot is reused by a second tenant")
	}
	t.Logf("googlenet: %d instrs, %d slotted tenancies in %d slots (%d reused), %d in-place, peak %d KB",
		len(p.Instrs), slotted, len(p.SlotCap), reused, p.Stats.InPlace, p.Stats.PeakBytes/1024)
}

// TestInPlaceMarking: a ReLU directly after its only producer runs in
// the producer's buffer, and GoogLeNet (a relu after every conv) gets
// substantial in-place coverage. Compiled without fusion — the fusion
// pass otherwise folds exactly these single-consumer relus away.
func TestInPlaceMarking(t *testing.T) {
	p := compileNoFuse(t, inceptionNet(), 4)
	foundRelu := false
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Op == OpReLU && ins.Donor >= 0 {
			foundRelu = true
			d := &p.Instrs[ins.Args[ins.Donor]]
			if d.Layout != ins.Layout || d.DataLen() != ins.DataLen() {
				t.Errorf("in-place relu %q donor %q mismatched", ins.Name, d.Name)
			}
		}
	}
	if !foundRelu {
		t.Error("no relu runs in place on the planner DAG")
	}
	if p.Stats.InPlace == 0 {
		t.Error("stats report zero in-place instructions")
	}
}

// TestInPlaceRejectedWhenValueStillLive: when a value feeds two
// parallel consumers, neither may overwrite it in place.
func TestInPlaceRejectedWhenValueStillLive(t *testing.T) {
	b, x := dnn.NewBuilder("fanout", 4, 8, 8)
	x = b.Conv(x, "c1", 4, 3, 1, 1)
	r1 := b.ReLU(x, "r1")
	r2 := b.ReLU(x, "r2")
	x = b.Add("sum", r1, r2)
	b.Softmax(x, "prob")
	p := compile(t, b.Graph(), 4)
	conv := p.InstrOf[p.Plan.Net.Layers[1].ID]
	for _, name := range []string{"r1", "r2"} {
		for i := range p.Instrs {
			ins := &p.Instrs[i]
			if ins.Name == name && ins.Donor >= 0 && ins.Args[ins.Donor] == conv {
				t.Errorf("%s overwrites the shared conv output in place", name)
			}
		}
	}
}

// TestMemoryPlanIsParallelSafe re-validates the compiled plans of all
// full-size models (Validate holds slot reuse to the ancestor
// discipline that makes it sound under the concurrent scheduler).
func TestMemoryPlanIsParallelSafe(t *testing.T) {
	for _, name := range models.Names() {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		p := compile(t, g, 4)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Stats.PeakBytes >= p.Stats.NaiveBytes {
			t.Errorf("%s: planned peak %d B is no better than unplanned %d B",
				name, p.Stats.PeakBytes, p.Stats.NaiveBytes)
		}
	}
}

// TestValidateCatchesCorruption: hand-corrupting the plan must fail
// validation.
func TestValidateCatchesCorruption(t *testing.T) {
	p := compile(t, inceptionNet(), 4)
	// Find two slotted instructions sharing no slot and force a
	// conflict: give the later one the earlier one's slot while the
	// earlier value is still live (its consumer is the later one's
	// sibling, not ancestor).
	var slotted []int
	for i := range p.Instrs {
		if p.Instrs[i].Slot >= 0 && p.Instrs[i].Donor < 0 {
			slotted = append(slotted, i)
		}
	}
	if len(slotted) < 2 {
		t.Skip("not enough slotted instructions")
	}
	save := p.Instrs[slotted[1]].Slot
	p.Instrs[slotted[1]].Slot = len(p.SlotCap) + 7
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range slot")
	}
	p.Instrs[slotted[1]].Slot = save

	out := &p.Instrs[p.Output]
	out.Slot = 0
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a slot-backed network output")
	}
	out.Slot = NoSlot
}

// TestSourceListing: the pretty-printer renders every instruction and
// the memory plan from the same stream the engine executes.
func TestSourceListing(t *testing.T) {
	p := compile(t, inceptionNet(), 4)
	src := p.Source()
	for _, want := range []string{
		"// program for planner-dag",
		"predicted cost",
		"instructions",
		"memory plan:",
		"cat = concat(",
		"prob = softmax(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("listing missing %q:\n%s", want, src)
		}
	}
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Prim == nil {
			continue
		}
		// A fused instruction renders its epilogue marker between the
		// primitive name and the argument list.
		call := ins.Prim.Name + "("
		if len(ins.EpiLayers) > 0 {
			call = ins.Prim.Name + "+" + ins.Epi.String() + "("
		}
		if !strings.Contains(src, call) {
			t.Errorf("listing does not call %s", call)
		}
	}
	// The planner DAG fuses epilogues, and the listing says so.
	if !strings.Contains(src, "+relu(") || !strings.Contains(src, "// fusion:") {
		t.Errorf("listing does not render fusion:\n%s", src)
	}
	// Conversion chains appear as their direct-transform calls.
	for i := range p.Instrs {
		for _, tr := range p.Instrs[i].Chain {
			if !strings.Contains(src, tr.Name+"(") {
				t.Errorf("listing does not show transform %s", tr.Name)
			}
		}
	}
}

// TestCompileRejectsCorruptPlan mirrors the engine-construction check:
// a plan whose layouts disagree with its primitives must not compile.
func TestCompileRejectsCorruptPlan(t *testing.T) {
	net := inceptionNet()
	plan, err := selector.Select(net, selector.Options{Prof: cost.NewModel(cost.IntelHaswell)})
	if err != nil {
		t.Fatal(err)
	}
	id := net.ConvLayers()[0]
	saved := plan.Layouts[id]
	plan.Layouts[id] = (saved + 1) % 8
	if _, err := CompileBatch(plan, 1); err == nil {
		t.Error("CompileBatch accepted a plan whose layouts disagree with its primitives")
	}
	plan.Layouts[id] = saved
	if _, err := CompileBatch(plan, 1); err != nil {
		t.Errorf("restored plan should compile: %v", err)
	}
}

// TestConvertChainFusesToFinalLayout: a compiled conversion instruction
// is semantically one ConvertInto to the chain's final layout —
// executing it that way matches walking the chain hop by hop.
func TestConvertChainFusesToFinalLayout(t *testing.T) {
	for _, name := range []string{"alexnet"} {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		p := compile(t, g, 4)
		for i := range p.Instrs {
			ins := &p.Instrs[i]
			if ins.Op != OpConvert {
				continue
			}
			src := tensor.New(ins.Chain[0].From, ins.C, ins.H, ins.W)
			src.FillRandom(int64(i))
			hops := src
			for _, tr := range ins.Chain {
				hops = tr.Run(hops)
			}
			fused := tensor.Convert(src, ins.Layout)
			if !tensor.AlmostEqual(hops, fused, 0) {
				t.Errorf("%s: fused conversion differs from chained hops", ins.Name)
			}
		}
	}
}
