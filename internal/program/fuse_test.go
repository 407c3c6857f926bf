package program

import (
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/selector"
)

// TestFusionFoldsEpilogues pins the fusion pass's rewrites on the
// planner DAG: the stem's conv+relu, branch 1's conv+relu, and the
// residual tail's conv+add+relu all collapse into their producing
// convolution, which keeps the conv's Layer (its costed scenario) and
// takes the fused-away value's name.
func TestFusionFoldsEpilogues(t *testing.T) {
	p := compile(t, inceptionNet(), 4)
	net := p.Plan.Net
	byName := map[string]*Instr{}
	for i := range p.Instrs {
		byName[p.Instrs[i].Name] = &p.Instrs[i]
	}
	for _, name := range []string{"stem-relu", "b1/relu"} {
		ins, ok := byName[name]
		if !ok {
			t.Fatalf("no instruction produces %q", name)
		}
		if ins.Op != OpConv || ins.Epi != gemm.EpiReLU || len(ins.EpiLayers) != 1 {
			t.Errorf("%q: op=%s epi=%s layers=%d, want fused conv+relu", name, ins.Op, ins.Epi, len(ins.EpiLayers))
		}
		if len(ins.Args) != 1 {
			t.Errorf("%q: %d args, want 1", name, len(ins.Args))
		}
	}
	ins, ok := byName["res/relu"]
	if !ok {
		t.Fatal("no instruction produces the residual relu value")
	}
	if ins.Op != OpConv || ins.Epi != gemm.EpiAddReLU {
		t.Fatalf("residual tail: op=%s epi=%s, want fused conv+add+relu", ins.Op, ins.Epi)
	}
	if len(ins.EpiLayers) != 2 || ins.EpiLayers[0].Name != "res/add" || ins.EpiLayers[1].Name != "res/relu" {
		t.Errorf("residual tail fuses %v, want [res/add res/relu]", ins.EpiLayers)
	}
	if len(ins.Args) != 2 {
		t.Fatalf("residual tail has %d args, want conv input + residual", len(ins.Args))
	}
	if res := &p.Instrs[ins.Args[1]]; res.Name != "cat" {
		t.Errorf("residual operand is %q, want the concat value", res.Name)
	}
	if ins.Layer.Name != "res/conv" {
		t.Errorf("fused instruction's scenario layer is %q, want res/conv", ins.Layer.Name)
	}
	if ins.ValueLayer().Name != "res/relu" {
		t.Errorf("fused instruction's value layer is %q, want res/relu", ins.ValueLayer().Name)
	}
	// Every fused-away layer maps to its carrying instruction.
	for _, l := range net.Layers {
		home := p.InstrOf[l.ID]
		found := false
		ci := &p.Instrs[home]
		if ci.Layer == l {
			found = true
		}
		for _, fl := range ci.EpiLayers {
			if fl == l {
				found = true
			}
		}
		if !found {
			t.Errorf("layer %q maps to instruction %q which does not carry it", l.Name, ci.Name)
		}
	}
}

// TestFusionSkipsMultiConsumerProducers: a convolution whose value
// feeds two consumers is observable and must not fuse into either.
func TestFusionSkipsMultiConsumerProducers(t *testing.T) {
	b, x := dnn.NewBuilder("fanout", 4, 8, 8)
	x = b.Conv(x, "c1", 4, 3, 1, 1)
	r1 := b.ReLU(x, "r1")
	r2 := b.ReLU(x, "r2")
	x = b.Add("sum", r1, r2)
	b.Softmax(x, "prob")
	p := compile(t, b.Graph(), 4)
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Epi != gemm.EpiNone || len(ins.EpiLayers) > 0 {
			t.Errorf("%q fused (%s) despite its producer having two consumers", ins.Name, ins.Epi)
		}
	}
	if p.Stats.FusedEpilogues != 0 {
		t.Errorf("stats report %d fused epilogues on the fanout net", p.Stats.FusedEpilogues)
	}
}

// TestFusionSkipsOutput: an elementwise layer producing the network
// output stays its own instruction (the output must remain a fresh,
// caller-owned allocation).
func TestFusionSkipsOutput(t *testing.T) {
	b, x := dnn.NewBuilder("relu-tail", 4, 8, 8)
	x = b.Conv(x, "c1", 4, 3, 1, 1)
	b.ReLU(x, "out-relu")
	p := compile(t, b.Graph(), 1)
	out := &p.Instrs[p.Output]
	if out.Op != OpReLU || out.Epi != gemm.EpiNone {
		t.Errorf("output instruction is %s epi=%s, want an unfused relu", out.Op, out.Epi)
	}
}

// TestNoFuseBaselineShape: CompileBatchNoFuse reproduces the
// pre-fusion stream — one instruction per layer plus one per legalized
// edge — and its stats carry no fusion deltas.
func TestNoFuseBaselineShape(t *testing.T) {
	p := compileNoFuse(t, inceptionNet(), 4)
	wantConv := 0
	for _, chain := range p.Plan.Conversions {
		if len(chain) > 0 {
			wantConv++
		}
	}
	if got, want := len(p.Instrs), p.Plan.Net.NumLayers()+wantConv; got != want {
		t.Errorf("%d instructions, want %d", got, want)
	}
	if p.Stats.FusedEpilogues != 0 || p.Stats.FusedConversions != 0 {
		t.Errorf("no-fuse program reports fusion: %d epilogues, %d conversions",
			p.Stats.FusedEpilogues, p.Stats.FusedConversions)
	}
	if p.Stats.UnfusedInstructions != p.Stats.Instructions || p.Stats.UnfusedPeakBytes != p.Stats.PeakBytes {
		t.Errorf("no-fuse baseline figures diverge from the program's own")
	}
}

// TestFusionReducesInstructionsOnModels: on the real model zoo, fusion
// must fold a substantial share of the stream (every conv feeding a
// single relu fuses) without growing peak residency, at batch 1 and 8.
// The micronet demo net rides along as the smallest fused program.
func TestFusionReducesInstructionsOnModels(t *testing.T) {
	for _, name := range append(models.Names(), "micronet") {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 8} {
			plan, err := selector.SelectBatch(g, batch, selector.Options{
				Prof: cost.NewModel(cost.IntelHaswell), Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			p, err := CompileBatch(plan, batch)
			if err != nil {
				t.Fatal(err)
			}
			s := p.Stats
			if s.FusedEpilogues == 0 {
				t.Errorf("%s batch %d: no epilogues fused", name, batch)
			}
			if s.Instructions >= s.UnfusedInstructions {
				t.Errorf("%s batch %d: %d instructions, unfused %d — fusion shrank nothing",
					name, batch, s.Instructions, s.UnfusedInstructions)
			}
			if s.PeakBytes > s.UnfusedPeakBytes {
				t.Errorf("%s batch %d: fused peak %d B exceeds unfused %d B",
					name, batch, s.PeakBytes, s.UnfusedPeakBytes)
			}
			// No absorbable conversion may survive fusion: a remaining
			// convert feeding a conv's data input either has a multi-step
			// chain, another consumer, or a layout pair the primitive's
			// packer cannot gather.
			if batch > 1 {
				for i := range p.Instrs {
					v := &p.Instrs[i]
					if v.Op != OpConvert || len(v.Chain) != 1 {
						continue
					}
					var consumers []int
					for j := range p.Instrs {
						for _, a := range p.Instrs[j].Args {
							if a == i {
								consumers = append(consumers, j)
							}
						}
					}
					if len(consumers) != 1 {
						continue
					}
					k := &p.Instrs[consumers[0]]
					if k.Op == OpConv && len(k.CvtIn) == 0 && k.Args[0] == i &&
						v.Chain[0].To == k.Prim.In && k.Prim.CanAbsorbInput(v.Chain[0].From) {
						t.Errorf("%s batch %d: absorbable conversion %q survived fusion", name, batch, v.Name)
					}
				}
			}
			t.Logf("%s batch %d: %d→%d instrs (%d epi, %d cvt), peak %d→%d KB",
				name, batch, s.UnfusedInstructions, s.Instructions, s.FusedEpilogues,
				s.FusedConversions, s.UnfusedPeakBytes/1024, s.PeakBytes/1024)
		}
	}
}
