package exec

// Crafted absorbed-conversion equivalence: real model plans pick
// layout-consistent chains, so the pack-fused conversion path
// (Instr.CvtIn — the im2row patch builder gathering CHW input
// directly) never fires on them. This harness doctors a plan the same
// way internal/verify's coverage does — all-HWC selection, the conv
// pinned to im2row-pack, the network input pinned to CHW with a
// legalized one-step CHW→HWC chain — and proves the absorbed gather
// computes the same function as the textbook reference executor.

import (
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// cvtInPlan builds the doctored plan whose convolution absorbs its
// input conversion into the patch pack.
func cvtInPlan(t *testing.T, threads int) *selector.Plan {
	t.Helper()
	b, x := dnn.NewBuilder("cvtin", 3, 12, 12)
	x = b.Conv(x, "c1", 8, 3, 1, 1)
	x = b.ReLU(x, "r1")
	b.MaxPool(x, "tail", 2, 2, 0)
	net := b.Graph()
	plan, err := selector.LocalOptimal(net, tensor.HWC, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	var prim *conv.Primitive
	for _, p := range conv.Library() {
		if p.Name == "im2row-pack" {
			prim = p
		}
	}
	if prim == nil || !prim.CanAbsorbInput(tensor.CHW) {
		t.Fatal("im2row-pack missing or cannot absorb CHW input")
	}
	convID := net.ConvLayers()[0]
	if !prim.Supports(net.Layers[convID].Conv) {
		t.Fatalf("im2row-pack does not support %s", net.Layers[convID].Conv)
	}
	plan.Primitives[convID] = prim
	plan.Layouts[convID] = prim.Out
	inID := net.Layers[0].ID
	plan.Layouts[inID] = tensor.CHW
	for _, d := range tensor.DirectTransforms() {
		if d.From == tensor.CHW && d.To == tensor.HWC {
			plan.Conversions[[2]int{inID, convID}] = []tensor.Transform{d}
		}
	}
	if len(plan.Conversions[[2]int{inID, convID}]) != 1 {
		t.Fatal("no direct CHW→HWC transform in the library")
	}
	return plan
}

// TestEngineAbsorbedConversionMatchesReference executes the crafted
// plan at batch 1 and batched — the compiler absorbs the conversion at
// every batch size — checking both against the reference on distinct
// images.
func TestEngineAbsorbedConversionMatchesReference(t *testing.T) {
	for _, threads := range []int{1, 2} {
		plan := cvtInPlan(t, threads)
		net := plan.Net
		w := NewWeights(net)
		inputs := []*tensor.Tensor{
			newInput(net, 41), newInput(net, 42), newInput(net, 43),
		}
		want := make([]*tensor.Tensor, len(inputs))
		for i, in := range inputs {
			ref, err := Reference(net, in, w)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ref
		}
		for _, maxBatch := range []int{1, len(inputs)} {
			eng, err := NewEngineBatch(plan, w, maxBatch)
			if err != nil {
				t.Fatal(err)
			}
			if eng.prog.Stats.FusedConversions != 1 {
				t.Fatalf("crafted plan at maxBatch %d absorbed %d conversions, want 1",
					maxBatch, eng.prog.Stats.FusedConversions)
			}
			outs, err := eng.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range inputs {
				if !tensor.WithinRel(outs[i], want[i], relTol) {
					t.Errorf("cvtin (threads=%d maxBatch=%d): image %d diverges from reference by %g",
						threads, maxBatch, i, tensor.MaxRelDiff(outs[i], want[i]))
				}
			}
		}
	}
}
