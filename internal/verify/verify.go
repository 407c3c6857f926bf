// Package verify is the independent translation validator for the
// Program IR. It re-checks a compiled program from first principles:
// every derived fact — instruction arguments, shapes, layouts, the
// dependency links, the in-place donations and the slot plan — is
// recomputed here from the network graph and the selection plan alone,
// never trusted from the fields CompileBatch wrote. The package
// deliberately shares no helper code with internal/program: its kind→op
// mapping, layout arithmetic, ancestry closure and liveness model are
// all written twice on purpose, so a bug in the compiler's copy cannot
// hide itself in the checker.
//
// Where Program.Validate asserts local structural invariants (the ones
// the compiler promises itself), this verifier asserts the translation
// contract: the program must be a faithful lowering of plan × batch,
// and its memory plan must be sound under an adversarial scheduler —
// any topological interleaving the branch-parallel engine could
// exhibit, not just the sequential ID order.
//
// Tests register it behind program.DebugVerify so every program the
// suite compiles is re-checked at build time.
package verify

import (
	"fmt"
	"sort"

	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/tensor"
)

// noSlot mirrors program.NoSlot without importing the constant's
// meaning from the code under test (the value is part of the public IR
// contract, so referencing the named constant is fine).
const noSlot = program.NoSlot

// Program checks that p is a faithful and memory-sound lowering of
// p.Plan at p.Batch. It returns the first violation found, or nil.
func Program(p *program.Program) error {
	if p == nil {
		return fmt.Errorf("verify: nil program")
	}
	v := &verifier{p: p}
	for _, step := range []func() error{
		v.checkPlanBatch,
		v.checkStructure,
		v.checkTranslation,
		v.checkShapes,
		v.checkLinks,
		v.checkOutput,
		v.checkDonations,
		v.checkSlots,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type verifier struct {
	p *program.Program

	// order is the verifier's own topological order of the layer graph.
	order []int
	// edgeOf attributes each OpConvert instruction to the graph edge it
	// legalizes; layer instructions map to -1,-1.
	edgeOf map[int][2]int
	// anc[j][i] reports that instruction i must complete before j can
	// start (computed here, not by the compiler's bitset).
	anc [][]bool
}

// dataLen recomputes the physical element count of a value — the
// verifier's own copy of the layout arithmetic.
func dataLen(l tensor.Layout, c, h, w int) int {
	switch l {
	case tensor.CHW4:
		return ((c + 3) / 4) * 4 * h * w
	case tensor.CHW8:
		return ((c + 7) / 8) * 8 * h * w
	default:
		return c * h * w
	}
}

// opFor is the verifier's own layer-kind → opcode mapping.
func opFor(k dnn.Kind) (program.Op, bool) {
	switch k {
	case dnn.KindInput:
		return program.OpInput, true
	case dnn.KindConv:
		return program.OpConv, true
	case dnn.KindReLU:
		return program.OpReLU, true
	case dnn.KindLRN:
		return program.OpLRN, true
	case dnn.KindMaxPool:
		return program.OpMaxPool, true
	case dnn.KindAvgPool:
		return program.OpAvgPool, true
	case dnn.KindDropout:
		return program.OpDropout, true
	case dnn.KindSoftmax:
		return program.OpSoftmax, true
	case dnn.KindFC:
		return program.OpFC, true
	case dnn.KindConcat:
		return program.OpConcat, true
	case dnn.KindAdd:
		return program.OpAdd, true
	}
	return 0, false
}

// mayRunInPlace is the verifier's copy of the kernel aliasing whitelist
// from the contract documented in program/kernels.go: only ReLU,
// elementwise add (first operand) and dropout tolerate dst == src.
func mayRunInPlace(o program.Op) bool {
	return o == program.OpReLU || o == program.OpAdd || o == program.OpDropout
}

// checkPlanBatch re-asserts the plan/batch agreement rule: a plan
// selected against batch-N costs executes at exactly N; a per-image
// plan executes at any N ≥ 1.
func (v *verifier) checkPlanBatch() error {
	p := v.p
	if p.Plan == nil || p.Plan.Net == nil {
		return fmt.Errorf("verify: program carries no plan")
	}
	if p.Batch < 1 {
		return fmt.Errorf("verify: batch %d < 1", p.Batch)
	}
	if p.Plan.Batch > 1 && p.Plan.Batch != p.Batch {
		return fmt.Errorf("verify: plan selected at batch %d, program compiled at %d", p.Plan.Batch, p.Batch)
	}
	return nil
}

// checkStructure asserts the ID/index identity and that every argument
// precedes its consumer — the precondition for the forward ancestry
// pass everything later relies on. It also computes the verifier's own
// topological order of the layer graph.
func (v *verifier) checkStructure() error {
	p := v.p
	net := p.Plan.Net
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.ID != j {
			return fmt.Errorf("verify: instr at index %d carries id %d", j, ins.ID)
		}
		for _, a := range ins.Args {
			if a < 0 || a >= j {
				return fmt.Errorf("verify: instr %d (%s) consumes value %d not strictly before it", j, ins.Name, a)
			}
		}
	}

	// Kahn's algorithm over the layer graph, independently of
	// net.TopoOrder.
	n := net.NumLayers()
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(net.Preds(id))
	}
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		v.order = append(v.order, u)
		for _, s := range net.Succs(u) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(v.order) != n {
		return fmt.Errorf("verify: layer graph %q is cyclic", net.Name)
	}

	// The forward ancestry closure: anc[j] ⊇ anc[a] ∪ {a} for each arg.
	// Sound because args strictly precede consumers (checked above).
	m := len(p.Instrs)
	v.anc = make([][]bool, m)
	for j := 0; j < m; j++ {
		row := make([]bool, m)
		for _, a := range p.Instrs[j].Args {
			row[a] = true
			for i, ok := range v.anc[a] {
				if ok {
					row[i] = true
				}
			}
		}
		v.anc[j] = row
	}
	return nil
}

// checkTranslation re-derives the whole instruction stream from the
// net and the plan: one instruction per layer with arguments in
// declared predecessor order, plus exactly one convert instruction per
// legalized edge, whose chain matches the plan's chain transform by
// transform. Fused instructions are re-derived too: an instruction may
// carry extra layers only as a legal epilogue fusion (checkFusion),
// and may absorb its input conversion only under the absorption rules.
func (v *verifier) checkTranslation() error {
	p := v.p
	net := p.Plan.Net
	plan := p.Plan

	if len(p.InstrOf) != net.NumLayers() {
		return fmt.Errorf("verify: InstrOf covers %d layers, net has %d", len(p.InstrOf), net.NumLayers())
	}
	for id := 0; id < net.NumLayers(); id++ {
		if j := p.InstrOf[id]; j < 0 || j >= len(p.Instrs) {
			return fmt.Errorf("verify: layer %d maps to out-of-range instr %d", id, j)
		}
	}

	// Every non-convert instruction claims its base layer plus its fused
	// epilogue layers; every layer must be claimed by exactly one
	// instruction, the one InstrOf names.
	claimed := make([]int, net.NumLayers())
	for id := range claimed {
		claimed[id] = -1
	}
	claim := func(l *dnn.Layer, j int) error {
		if l == nil || l.ID < 0 || l.ID >= net.NumLayers() || net.Layers[l.ID] != l {
			return fmt.Errorf("verify: instr %d carries a layer not in net %q", j, net.Name)
		}
		if prev := claimed[l.ID]; prev >= 0 {
			return fmt.Errorf("verify: layer %q computed by both instr %d and %d", l.Name, prev, j)
		}
		claimed[l.ID] = j
		return nil
	}
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Op == program.OpConvert {
			continue
		}
		if err := claim(ins.Layer, j); err != nil {
			return err
		}
		want, ok := opFor(ins.Layer.Kind)
		if !ok {
			return fmt.Errorf("verify: layer %q has untranslatable kind %s", ins.Layer.Name, ins.Layer.Kind)
		}
		if ins.Op != want {
			return fmt.Errorf("verify: layer %q (%s) lowered to op %s, want %s", ins.Layer.Name, ins.Layer.Kind, ins.Op, want)
		}
		if err := v.checkFusion(j); err != nil {
			return err
		}
		for _, fl := range ins.EpiLayers {
			if err := claim(fl, j); err != nil {
				return err
			}
		}
	}
	for id := 0; id < net.NumLayers(); id++ {
		if claimed[id] != p.InstrOf[id] {
			return fmt.Errorf("verify: layer %q computed by instr %d, InstrOf says %d",
				net.Layers[id].Name, claimed[id], p.InstrOf[id])
		}
	}

	// Re-derive every layer instruction's argument list. A convert
	// instruction is legal only where the plan legalizes an edge with a
	// non-empty chain, and is consumed exactly once, by that edge's
	// consumer. An absorbed conversion (CvtIn) replaces the convert for
	// the convolution's data edge; a fused residual appends the residual
	// value (or its convert) as the second argument.
	v.edgeOf = make(map[int][2]int)
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Op == program.OpConvert {
			continue
		}
		id := ins.Layer.ID
		preds := net.Preds(id)

		want := make([]int, len(preds))
		for k, pr := range preds {
			src := p.InstrOf[pr]
			chain := plan.Conversions[[2]int{pr, id}]
			if k == 0 && len(ins.CvtIn) > 0 {
				// The absorbed conversion must BE the plan's chain for
				// this edge; the instruction then consumes the producer's
				// raw value.
				if len(chain) != 1 || !transformEqual(ins.CvtIn[0], chain[0]) {
					return fmt.Errorf("verify: conv %q absorbed chain does not match plan edge %d→%d",
						ins.Name, pr, id)
				}
				want[k] = src
				continue
			}
			if len(chain) > 0 {
				// The arg must be a convert instruction applying exactly
				// this chain to the producer's value.
				ci, err := v.matchConvert(ins, preds, k, src, chain, id)
				if err != nil {
					return err
				}
				want[k] = ci
			} else {
				want[k] = src
			}
		}
		if len(ins.EpiLayers) > 0 && (ins.Epi == gemm.EpiAdd || ins.Epi == gemm.EpiAddReLU) {
			// The residual operand re-derives from the fused add layer's
			// other predecessor (checkFusion proved there is exactly one).
			addL := ins.EpiLayers[0]
			rp := -1
			for _, ap := range net.Preds(addL.ID) {
				if ap != id {
					rp = ap
				}
			}
			if rp < 0 {
				return fmt.Errorf("verify: fused add %q has no residual predecessor", addL.Name)
			}
			rsrc := p.InstrOf[rp]
			if rchain := plan.Conversions[[2]int{rp, addL.ID}]; len(rchain) > 0 {
				ci, err := v.matchResidualConvert(ins, rp, rsrc, rchain, addL.ID)
				if err != nil {
					return err
				}
				want = append(want, ci)
			} else {
				want = append(want, rsrc)
			}
		}
		if !argsMatch(ins, want) {
			return fmt.Errorf("verify: layer %q args %v do not re-derive from predecessors %v (want %v)",
				ins.Name, ins.Args, preds, want)
		}
	}

	// Every instruction must be accounted for: a layer instruction or a
	// claimed convert. Strays are fabrications.
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Op == program.OpConvert {
			if _, isConv := v.edgeOf[j]; !isConv {
				return fmt.Errorf("verify: convert instr %d (%s) legalizes no plan edge", j, ins.Name)
			}
		}
	}
	return nil
}

func transformEqual(a, b tensor.Transform) bool {
	return a.Name == b.Name && a.From == b.From && a.To == b.To
}

// checkFusion re-derives the legality of instruction j's fusion fields
// from the graph and the plan alone. An unfused instruction passes
// trivially; a fused one must walk a chain of single-successor,
// conversion-free, layout-stable epilogue layers of the right kinds,
// and an absorbed input conversion must be a one-step chain the
// selected primitive's packer can gather.
func (v *verifier) checkFusion(j int) error {
	p := v.p
	net := p.Plan.Net
	plan := p.Plan
	ins := &p.Instrs[j]

	// Epilogue ↔ op ↔ fused-layer-kind coupling.
	var wantKinds []dnn.Kind
	switch ins.Epi {
	case gemm.EpiNone:
		if len(ins.EpiLayers) != 0 {
			return fmt.Errorf("verify: instr %d (%s) has fused layers but no epilogue", j, ins.Name)
		}
	case gemm.EpiReLU:
		if ins.Op != program.OpConv && ins.Op != program.OpFC {
			return fmt.Errorf("verify: instr %d (%s %s) cannot carry a relu epilogue", j, ins.Op, ins.Name)
		}
		wantKinds = []dnn.Kind{dnn.KindReLU}
	case gemm.EpiAdd:
		if ins.Op != program.OpConv {
			return fmt.Errorf("verify: instr %d (%s %s) cannot carry an add epilogue", j, ins.Op, ins.Name)
		}
		wantKinds = []dnn.Kind{dnn.KindAdd}
	case gemm.EpiAddReLU:
		if ins.Op != program.OpConv {
			return fmt.Errorf("verify: instr %d (%s %s) cannot carry an add+relu epilogue", j, ins.Op, ins.Name)
		}
		wantKinds = []dnn.Kind{dnn.KindAdd, dnn.KindReLU}
	default:
		return fmt.Errorf("verify: instr %d (%s) carries unknown epilogue %v", j, ins.Name, ins.Epi)
	}
	if len(ins.EpiLayers) != len(wantKinds) {
		return fmt.Errorf("verify: instr %d (%s) epilogue %s fuses %d layers, wants %d",
			j, ins.Name, ins.Epi, len(ins.EpiLayers), len(wantKinds))
	}

	// Walk the fused chain: each fused layer must be its producer's ONLY
	// graph successor (the producer's value is observable nowhere else),
	// on an edge the plan does not legalize (no conversion may hide
	// between producer and epilogue), with both sides selected into the
	// same layout.
	cur := ins.Layer
	for i, fl := range ins.EpiLayers {
		if fl.Kind != wantKinds[i] {
			return fmt.Errorf("verify: instr %d (%s) fuses %s layer %q, position %d wants %s",
				j, ins.Name, fl.Kind, fl.Name, i, wantKinds[i])
		}
		succs := net.Succs(cur.ID)
		if len(succs) != 1 || succs[0] != fl.ID {
			return fmt.Errorf("verify: instr %d fuses %q over producer %q which has other consumers %v",
				j, fl.Name, cur.Name, succs)
		}
		if len(plan.Conversions[[2]int{cur.ID, fl.ID}]) > 0 {
			return fmt.Errorf("verify: instr %d fuses %q across legalized edge %d→%d", j, fl.Name, cur.ID, fl.ID)
		}
		la, oka := plan.Layouts[cur.ID]
		lb, okb := plan.Layouts[fl.ID]
		if !oka || !okb || la != lb {
			return fmt.Errorf("verify: instr %d fuses %q over a layout change (%s→%s)", j, fl.Name, la, lb)
		}
		cur = fl
	}

	// A fused add must have exactly two predecessors (one the producer),
	// and the residual operand must physically match the output slab —
	// the epilogue reads it element for element.
	if ins.Epi == gemm.EpiAdd || ins.Epi == gemm.EpiAddReLU {
		addL := ins.EpiLayers[0]
		apreds := net.Preds(addL.ID)
		if len(apreds) != 2 {
			return fmt.Errorf("verify: fused add %q has %d predecessors, want 2", addL.Name, len(apreds))
		}
		if len(ins.Args) != 2 {
			return fmt.Errorf("verify: instr %d (%s) epilogue %s carries %d args, wants producer input + residual",
				j, ins.Name, ins.Epi, len(ins.Args))
		}
		r := &p.Instrs[ins.Args[1]]
		if r.Layout != ins.Layout || dataLen(r.Layout, r.C, r.H, r.W) != dataLen(ins.Layout, ins.C, ins.H, ins.W) {
			return fmt.Errorf("verify: instr %d (%s) residual %q does not physically match its output", j, ins.Name, r.Name)
		}
	}

	// Absorbed input conversion: convolutions only, one-step chains
	// only, and the primitive's layout-general packer must support the
	// source layout.
	if len(ins.CvtIn) > 0 {
		if ins.Op != program.OpConv {
			return fmt.Errorf("verify: instr %d (%s %s) absorbs an input conversion", j, ins.Op, ins.Name)
		}
		if len(ins.CvtIn) != 1 {
			return fmt.Errorf("verify: instr %d (%s) absorbs a %d-step chain", j, ins.Name, len(ins.CvtIn))
		}
		if ins.Prim == nil {
			return fmt.Errorf("verify: instr %d (%s) absorbs a conversion without a primitive", j, ins.Name)
		}
		if ins.CvtIn[0].To != ins.Prim.In || !ins.Prim.CanAbsorbInput(ins.CvtIn[0].From) {
			return fmt.Errorf("verify: instr %d (%s): primitive %s cannot absorb %s input",
				j, ins.Name, ins.Prim.Name, ins.CvtIn[0].From)
		}
	}
	return nil
}

// matchConvert locates and checks the convert instruction feeding
// argument position k of the consumer: it must consume the producer's
// value, carry the plan's chain for that edge (compared by Name, From
// and To), produce the producer's shape in the chain's final layout,
// and serve exactly one edge. consID is the consuming layer's id (the
// instruction's own layer).
func (v *verifier) matchConvert(consumer *program.Instr, preds []int, k, src int, chain []tensor.Transform, consID int) (int, error) {
	if k >= len(consumer.Args) {
		return -1, fmt.Errorf("verify: layer %q has %d args for %d predecessors", consumer.Name, len(consumer.Args), len(preds))
	}
	// The consumer's k-th arg should be the convert — except that a
	// two-operand add may have had its operands swapped by donor
	// promotion, so search both positions for an OpConvert consuming
	// src.
	cand := []int{consumer.Args[k]}
	if consumer.Op == program.OpAdd && len(consumer.Args) == 2 {
		cand = consumer.Args
	}
	for _, ci := range cand {
		if err := v.checkConvertMatch(ci, src, chain, preds[k], consID); err == nil {
			return ci, nil
		}
	}
	return -1, fmt.Errorf("verify: edge %s→%s is legalized by the plan but layer %q consumes no matching convert",
		v.p.Plan.Net.Layers[preds[k]].Name, consumer.Name, consumer.Name)
}

// matchResidualConvert checks the fused residual operand against the
// plan's legalized chain for the residual edge into the fused add.
func (v *verifier) matchResidualConvert(ins *program.Instr, prodID, src int, chain []tensor.Transform, addID int) (int, error) {
	ci := ins.Args[1]
	if err := v.checkConvertMatch(ci, src, chain, prodID, addID); err != nil {
		return -1, fmt.Errorf("verify: fused residual of %q: %w", ins.Name, err)
	}
	return ci, nil
}

// checkConvertMatch checks that instruction ci is the convert
// legalizing edge prodID→consID: consuming src, applying exactly
// chain, with the producer's shape and the chain's endpoint layouts.
// On success the edge is claimed in edgeOf.
func (v *verifier) checkConvertMatch(ci, src int, chain []tensor.Transform, prodID, consID int) error {
	p := v.p
	net := p.Plan.Net
	if ci < 0 || ci >= len(p.Instrs) {
		return fmt.Errorf("verify: convert candidate %d out of range", ci)
	}
	ins := &p.Instrs[ci]
	if ins.Op != program.OpConvert || len(ins.Args) != 1 || ins.Args[0] != src {
		return fmt.Errorf("verify: instr %d is no convert of value %d", ci, src)
	}
	if prev, claimed := v.edgeOf[ci]; claimed {
		return fmt.Errorf("verify: convert instr %d serves edges %v and %d→%d", ci, prev, prodID, consID)
	}
	if len(ins.Chain) != len(chain) {
		return fmt.Errorf("verify: convert instr %d applies %d transforms, plan edge %d→%d has %d",
			ci, len(ins.Chain), prodID, consID, len(chain))
	}
	for i := range chain {
		if !transformEqual(ins.Chain[i], chain[i]) {
			got, want := ins.Chain[i], chain[i]
			return fmt.Errorf("verify: convert instr %d chain[%d] is %s(%s→%s), plan has %s(%s→%s)",
				ci, i, got.Name, got.From, got.To, want.Name, want.From, want.To)
		}
	}
	pl := net.Layers[prodID]
	if ins.C != pl.OutC || ins.H != pl.OutH || ins.W != pl.OutW {
		return fmt.Errorf("verify: convert instr %d shape %d×%d×%d, producer %q is %d×%d×%d",
			ci, ins.C, ins.H, ins.W, pl.Name, pl.OutC, pl.OutH, pl.OutW)
	}
	if got := p.Instrs[src].Layout; got != chain[0].From {
		return fmt.Errorf("verify: convert instr %d consumes %s value, chain starts at %s", ci, got, chain[0].From)
	}
	if ins.Layout != chain[len(chain)-1].To {
		return fmt.Errorf("verify: convert instr %d produces %s, chain ends at %s", ci, ins.Layout, chain[len(chain)-1].To)
	}
	v.edgeOf[ci] = [2]int{prodID, consID}
	return nil
}

// argsMatch compares a layer instruction's arguments against the
// re-derived list, tolerating the one rewrite the compiler may apply:
// operand swap on a two-input add (donor promotion; bitwise-safe
// because two-operand float add is commutative).
func argsMatch(ins *program.Instr, want []int) bool {
	if len(ins.Args) != len(want) {
		return false
	}
	for i := range want {
		if ins.Args[i] != want[i] {
			if ins.Op == program.OpAdd && len(want) == 2 &&
				ins.Args[0] == want[1] && ins.Args[1] == want[0] {
				return true
			}
			return false
		}
	}
	return true
}

// checkShapes re-derives every instruction's shape and layout from the
// layer table and the plan, and re-checks primitive legality — notably
// Prim.Supports(scenario), which the compiler never re-asserts after
// selection.
func (v *verifier) checkShapes() error {
	p := v.p
	net := p.Plan.Net
	plan := p.Plan
	for id := 0; id < net.NumLayers(); id++ {
		l := net.Layers[id]
		ins := &p.Instrs[p.InstrOf[id]]
		if ins.C != l.OutC || ins.H != l.OutH || ins.W != l.OutW {
			return fmt.Errorf("verify: layer %q instr shape %d×%d×%d, net says %d×%d×%d",
				l.Name, ins.C, ins.H, ins.W, l.OutC, l.OutH, l.OutW)
		}
		wantL, ok := plan.Layouts[id]
		if !ok {
			return fmt.Errorf("verify: plan assigns no layout to layer %q", l.Name)
		}
		if ins.Layout != wantL {
			return fmt.Errorf("verify: layer %q produces %s, plan selected %s", l.Name, ins.Layout, wantL)
		}
		if ins.Layer != l {
			// A fused-away epilogue layer: its value is the carrying
			// instruction's output, whose shape and layout were just
			// checked to agree with this layer too (checkTranslation
			// proved the fusion chain, including layout stability). The
			// per-instruction checks below run once, for the base layer.
			continue
		}

		switch {
		case l.Kind == dnn.KindInput:
			if len(ins.Args) != 0 {
				return fmt.Errorf("verify: input layer %q consumes %d values", l.Name, len(ins.Args))
			}
			continue
		case l.IsConv():
			prim := plan.Primitives[id]
			if prim == nil {
				return fmt.Errorf("verify: plan selects no primitive for conv layer %q", l.Name)
			}
			if ins.Prim != prim {
				return fmt.Errorf("verify: conv layer %q instr carries primitive %v, plan selected %s", l.Name, ins.Prim, prim)
			}
			// Scenario arithmetic: the layer's propagated shape must be
			// the scenario's, and the primitive must actually support the
			// scenario.
			s := l.Conv
			if s.M != l.OutC || s.OutH() != l.OutH || s.OutW() != l.OutW {
				return fmt.Errorf("verify: conv layer %q shape %d×%d×%d disagrees with scenario %s",
					l.Name, l.OutC, l.OutH, l.OutW, s)
			}
			if !prim.Supports(s) {
				return fmt.Errorf("verify: conv layer %q: selected primitive %s does not support %s", l.Name, prim.Name, s)
			}
			if prim.Out != ins.Layout {
				return fmt.Errorf("verify: conv layer %q: primitive %s emits %s, instr produces %s",
					l.Name, prim.Name, prim.Out, ins.Layout)
			}
		default:
			if ins.Prim != nil {
				return fmt.Errorf("verify: non-conv layer %q carries a primitive", l.Name)
			}
		}

		// Every incoming value — post-conversion — must arrive in the
		// layer's working layout (the primitive's input layout for conv,
		// the selected layout for wildcards) with the producer's shape.
		wantIn := wantL
		if l.IsConv() {
			wantIn = plan.Primitives[id].In
			if len(ins.CvtIn) > 0 {
				// The absorbed conversion's packer gathers straight from
				// the producer's layout.
				wantIn = ins.CvtIn[0].From
			}
		}
		preds := net.Preds(id)
		nargs := len(ins.Args)
		if ins.Epi == gemm.EpiAdd || ins.Epi == gemm.EpiAddReLU {
			// The trailing residual operand is read in the OUTPUT layout
			// by the epilogue, not the primitive's input layout; its
			// physical match was proven by checkFusion.
			nargs--
		}
		for k := 0; k < nargs; k++ {
			a := &p.Instrs[ins.Args[k]]
			if a.Layout != wantIn {
				return fmt.Errorf("verify: layer %q receives arg %d in %s, needs %s", l.Name, k, a.Layout, wantIn)
			}
			// Arg order may only deviate by the two-input-add swap, so
			// position k corresponds to preds[k] (or the other pred).
			if len(preds) == nargs {
				pl := net.Layers[preds[k]]
				if ins.Op == program.OpAdd && len(preds) == 2 && (a.C != pl.OutC || a.H != pl.OutH || a.W != pl.OutW) {
					pl = net.Layers[preds[1-k]]
				}
				if a.C != pl.OutC || a.H != pl.OutH || a.W != pl.OutW {
					return fmt.Errorf("verify: layer %q arg %d shape %d×%d×%d, producer %q is %d×%d×%d",
						l.Name, k, a.C, a.H, a.W, pl.Name, pl.OutC, pl.OutH, pl.OutW)
				}
			}
		}
	}
	return nil
}

// checkLinks re-derives the dependency metadata the engine's scheduler
// trusts: NumDeps must count distinct producers, and Succs must list
// exactly the distinct consumers.
func (v *verifier) checkLinks() error {
	p := v.p
	succs := make([][]int, len(p.Instrs))
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		deps := map[int]bool{}
		for _, a := range ins.Args {
			if !deps[a] {
				deps[a] = true
				succs[a] = append(succs[a], j)
			}
		}
		if ins.NumDeps != len(deps) {
			return fmt.Errorf("verify: instr %d (%s) records %d deps, has %d distinct producers", j, ins.Name, ins.NumDeps, len(deps))
		}
	}
	for j := range p.Instrs {
		got := append([]int(nil), p.Instrs[j].Succs...)
		sort.Ints(got)
		want := succs[j]
		sort.Ints(want)
		if len(got) != len(want) {
			return fmt.Errorf("verify: instr %d (%s) records %d successors, has %d consumers", j, p.Instrs[j].Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("verify: instr %d (%s) successor list %v, consumers are %v", j, p.Instrs[j].Name, got, want)
			}
		}
	}
	return nil
}

// checkOutput locates the network sink independently and asserts the
// program returns it as a fresh, caller-owned allocation, and that no
// other value is computed for nothing.
func (v *verifier) checkOutput() error {
	p := v.p
	net := p.Plan.Net
	sink := -1
	for id := 0; id < net.NumLayers(); id++ {
		if len(net.Succs(id)) == 0 {
			if sink >= 0 {
				return fmt.Errorf("verify: net %q has multiple sinks (%d and %d)", net.Name, sink, id)
			}
			sink = id
		}
	}
	if sink < 0 {
		return fmt.Errorf("verify: net %q has no sink", net.Name)
	}
	if p.Output != p.InstrOf[sink] {
		return fmt.Errorf("verify: program output is instr %d, net sink %q compiles to %d",
			p.Output, net.Layers[sink].Name, p.InstrOf[sink])
	}
	out := &p.Instrs[p.Output]
	if out.Slot != noSlot || out.Donor >= 0 || out.Alias {
		return fmt.Errorf("verify: output %q is not a fresh allocation (slot %d, donor %d)", out.Name, out.Slot, out.Donor)
	}
	for j := range p.Instrs {
		if j != p.Output && len(p.Instrs[j].Succs) == 0 {
			return fmt.Errorf("verify: non-output instr %d (%s) has no consumer", j, p.Instrs[j].Name)
		}
	}
	return nil
}

// checkDonations re-checks in-place execution against the kernel
// aliasing contract and the adversarial scheduler: a donated buffer may
// be overwritten only once every other reader of it is a strict
// ancestor of the overwriter — on every topological interleaving, not
// just the sequential one.
func (v *verifier) checkDonations() error {
	p := v.p
	donatedBy := make(map[int]int) // value id → donee instr
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Donor < 0 {
			if ins.Alias {
				return fmt.Errorf("verify: instr %d (%s) aliases without a donor", j, ins.Name)
			}
			continue
		}
		if !mayRunInPlace(ins.Op) {
			return fmt.Errorf("verify: instr %d (%s %s) runs in place but its kernel does not tolerate aliasing", j, ins.Op, ins.Name)
		}
		if ins.Donor >= len(ins.Args) {
			return fmt.Errorf("verify: instr %d (%s) donates arg %d of %d", j, ins.Name, ins.Donor, len(ins.Args))
		}
		// The aliasing contract allows dst to share only the FIRST
		// operand (AddInto accumulates onto it); donor promotion must
		// have moved the donated value to position 0.
		if ins.Donor != 0 {
			return fmt.Errorf("verify: instr %d (%s) donates arg %d; kernels tolerate aliasing only the first operand", j, ins.Name, ins.Donor)
		}
		if wantAlias := ins.Op == program.OpDropout; ins.Alias != wantAlias {
			return fmt.Errorf("verify: instr %d (%s) alias flag %v, want %v", j, ins.Name, ins.Alias, wantAlias)
		}
		d := ins.Args[0]
		dv := &p.Instrs[d]
		if prev, dup := donatedBy[d]; dup {
			return fmt.Errorf("verify: value %d donated to both instr %d and %d", d, prev, j)
		}
		donatedBy[d] = j
		if dv.Layout != ins.Layout {
			return fmt.Errorf("verify: instr %d (%s) overwrites %s donor in place, produces %s", j, ins.Name, dv.Layout, ins.Layout)
		}
		if dataLen(dv.Layout, dv.C, dv.H, dv.W) != dataLen(ins.Layout, ins.C, ins.H, ins.W) {
			return fmt.Errorf("verify: instr %d (%s) output does not physically match donor %d", j, ins.Name, d)
		}
		if ins.Slot != dv.Slot {
			return fmt.Errorf("verify: instr %d (%s) records slot %d, its donor occupies %d", j, ins.Name, ins.Slot, dv.Slot)
		}
		// Every other consumer of the donated value must be sealed — a
		// strict ancestor of the overwriter — or a concurrent branch
		// could read the buffer mid-overwrite.
		for _, c := range p.Instrs[d].Succs {
			if c != j && !v.anc[j][c] {
				return fmt.Errorf("verify: instr %d (%s) overwrites value %d while consumer %d (%s) is not ordered before it",
					j, ins.Name, d, c, p.Instrs[c].Name)
			}
		}
	}
	return nil
}

// checkSlots re-derives the placement rule and simulates slot
// occupancy under the adversarial scheduler: any two tenancies of one
// slot must be totally ordered, counting every instruction that can
// touch the buffer (the tenant, its donees, and all their consumers).
func (v *verifier) checkSlots() error {
	p := v.p

	// Placement: every value but the network output and in-place donees
	// writes a planned slot.
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if j != p.Output && ins.Donor < 0 && ins.Slot == noSlot {
			return fmt.Errorf("verify: instr %d (%s) is unslotted; it must write a planned slot", j, ins.Name)
		}
	}

	// Capacity: a slot must hold its largest tenant's batch-scaled
	// value. SlotCap is per image; the engine multiplies by Batch, so
	// per-image capacity must dominate every tenant's per-image length.
	need := make([]int, len(p.SlotCap))
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.Slot < 0 {
			continue
		}
		if ins.Slot >= len(p.SlotCap) {
			return fmt.Errorf("verify: instr %d (%s) uses slot %d of %d", j, ins.Name, ins.Slot, len(p.SlotCap))
		}
		n := dataLen(ins.Layout, ins.C, ins.H, ins.W)
		if n > p.SlotCap[ins.Slot] {
			return fmt.Errorf("verify: instr %d (%s) needs %d elements, slot %d holds %d",
				j, ins.Name, n, ins.Slot, p.SlotCap[ins.Slot])
		}
		if n > need[ins.Slot] {
			need[ins.Slot] = n
		}
	}
	for s, c := range p.SlotCap {
		if need[s] == 0 {
			return fmt.Errorf("verify: slot %d has no tenant", s)
		}
		if c != need[s] {
			return fmt.Errorf("verify: slot %d capacity %d, largest tenant needs %d", s, c, need[s])
		}
	}

	// Adversarial occupancy: group tenancies (out-of-place slotted
	// values and their donation chains) per slot; every pair must be
	// fully ordered one way or the other.
	donees := make([][]int, len(p.Instrs))
	for j := range p.Instrs {
		if ins := &p.Instrs[j]; ins.Donor >= 0 {
			donees[ins.Args[0]] = append(donees[ins.Args[0]], j)
		}
	}
	touchers := func(alloc int) []int {
		var ts []int
		stack := []int{alloc}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ts = append(ts, u)
			ts = append(ts, p.Instrs[u].Succs...)
			stack = append(stack, donees[u]...)
		}
		return ts
	}
	ordered := func(a, b int) bool { // every toucher of tenancy a precedes b's allocation
		for _, t := range touchers(a) {
			if !v.anc[b][t] {
				return false
			}
		}
		return true
	}
	bySlot := map[int][]int{}
	for j := range p.Instrs {
		if ins := &p.Instrs[j]; ins.Slot >= 0 && ins.Donor < 0 {
			bySlot[ins.Slot] = append(bySlot[ins.Slot], j)
		}
	}
	for slot, tenants := range bySlot {
		for i := 0; i < len(tenants); i++ {
			for k := i + 1; k < len(tenants); k++ {
				if !ordered(tenants[i], tenants[k]) && !ordered(tenants[k], tenants[i]) {
					return fmt.Errorf("verify: slot %d tenants %q and %q can overlap under a parallel schedule",
						slot, p.Instrs[tenants[i]].Name, p.Instrs[tenants[k]].Name)
				}
			}
		}
	}
	return nil
}
