// Package program lowers a checked selector.Plan into an executable
// Program IR: a topologically ordered instruction stream in which every
// instruction carries its pre-resolved work — the selected convolution
// primitive, a fast-path layer operator, or a fused layout-conversion
// chain — plus a static memory plan computed by liveness analysis.
//
// The paper's §5.2 "simple code generator" mapped a PBQP solution to a
// straight-line sequence of primitive and layout-transform calls; this
// package is that code generator made real. Compiling once replaces the
// per-task map lookups and type switches the interpreting executor paid
// on the hot path, and the fixed topological schedule makes static
// buffer reuse possible: instructions are assigned to a small set of
// reusable buffer slots, with in-place execution for ReLU, elementwise
// add and dropout where the executor's no-alias contract allows it.
//
// The slot plan is safe under parallel execution, not just the
// sequential schedule: a slot freed by a dead value may be reassigned
// to instruction j only if everything that touched the old buffer is a
// strict ancestor of j in the dependency DAG, so no concurrently
// runnable instruction can observe the reuse. The exec package's
// batched engine relies on this when it dispatches independent branches
// onto its worker pool.
package program

import (
	"fmt"
	"sort"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// Op enumerates the instruction kinds of the IR.
type Op uint8

const (
	// OpInput copies (and, if needed, layout-converts) the caller's
	// input tensor into engine-owned storage.
	OpInput Op = iota
	// OpConv invokes the layer's selected convolution primitive.
	OpConv
	// OpReLU through OpAdd are the wildcard layer operators.
	OpReLU
	OpLRN
	OpMaxPool
	OpAvgPool
	OpDropout
	OpSoftmax
	OpFC
	OpConcat
	OpAdd
	// OpConvert applies one legalized edge's fused conversion chain.
	OpConvert
)

// String names the op like the layer kinds it mirrors.
func (o Op) String() string {
	switch o {
	case OpInput:
		return "input"
	case OpConv:
		return "conv"
	case OpReLU:
		return "relu"
	case OpLRN:
		return "lrn"
	case OpMaxPool:
		return "maxpool"
	case OpAvgPool:
		return "avgpool"
	case OpDropout:
		return "dropout"
	case OpSoftmax:
		return "softmax"
	case OpFC:
		return "fc"
	case OpConcat:
		return "concat"
	case OpAdd:
		return "add"
	case OpConvert:
		return "convert"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// NoSlot marks a value that does not live in a planned slot: the
// caller-owned network output, which must be freshly allocated every
// run so returned tensors are never recycled underneath the caller.
const NoSlot = -1

// Instr is one instruction of the stream. Its ID doubles as the id of
// the value it produces; Args name the value ids it consumes.
type Instr struct {
	ID   int
	Op   Op
	Name string

	// Layer is the network layer this instruction computes. For
	// OpConvert it is the consumer layer whose incoming edge the chain
	// legalizes (the instruction's shape is the producer's).
	Layer *dnn.Layer

	// Args lists the consumed value ids in operator order.
	Args []int

	// Slot is the buffer slot holding this instruction's output value,
	// or NoSlot for dynamically allocated values. An in-place
	// instruction records the slot its donor occupies.
	Slot int
	// Donor, when ≥ 0, is the index into Args whose buffer this
	// instruction overwrites in place (the donated value is dead after
	// this instruction by construction).
	Donor int
	// Alias marks an in-place identity (dropout): the output value IS
	// the donor tensor; no kernel runs at all.
	Alias bool

	// C, H, W and Layout describe the produced value.
	C, H, W int
	Layout  tensor.Layout

	// Prim is the selected primitive (OpConv only).
	Prim *conv.Primitive
	// Chain is the legalized conversion chain (OpConvert only); it is
	// executed as one fused ConvertInto from Chain[0].From to
	// Chain[last].To.
	Chain []tensor.Transform

	// Epi is the fused epilogue (OpConv and OpFC only): the elementwise
	// consumer folded into this instruction's output write by the fusion
	// pass. EpiAdd/EpiAddReLU instructions carry the residual operand as
	// Args[1]. EpiLayers lists the fused-away network layers in
	// application order (e.g. [add, relu] for EpiAddReLU); the value this
	// instruction produces is the LAST fused layer's value.
	Epi       gemm.Epilogue
	EpiLayers []*dnn.Layer

	// CvtIn, when non-empty, is a legalized input-conversion chain the
	// fusion pass absorbed into the convolution's patch-building pack
	// (OpConv only): Args[0] arrives in CvtIn[0].From and the
	// layout-general packer gathers it directly, so the intermediate
	// converted slab is never materialized.
	CvtIn []tensor.Transform

	// NumDeps is the number of distinct producing instructions; Succs
	// lists the distinct consuming instructions. The engine's
	// dependency-counting scheduler reads both without recomputation.
	NumDeps int
	Succs   []int
}

// DataLen returns the physical element count of the produced value.
func (in *Instr) DataLen() int {
	return tensor.DataLen(in.Layout, in.C, in.H, in.W)
}

// ValueLayer returns the network layer whose value this instruction
// produces: the last fused epilogue layer when the instruction carries
// one, else its own layer.
func (in *Instr) ValueLayer() *dnn.Layer {
	if n := len(in.EpiLayers); n > 0 {
		return in.EpiLayers[n-1]
	}
	return in.Layer
}

// Bytes returns the payload size of the produced value in bytes.
func (in *Instr) Bytes() int64 { return int64(in.DataLen()) * 4 }

// Stats summarizes a compiled program for reporting. All byte figures
// are totals for the program's planned batch of N images — a batched
// program's slots hold N-image slabs, so memory reporting must scale
// with N (a batch-8 plan resident in a serving process really does
// hold 8× the batch-1 slot bytes).
type Stats struct {
	// Batch is the minibatch size N the program was planned for.
	Batch int
	// Instructions is the total instruction count; Conversions counts
	// the OpConvert instructions among them.
	Instructions int
	Conversions  int
	// Slots is the number of planned buffer slots; InPlace counts
	// instructions executing in their donor's buffer.
	Slots   int
	InPlace int
	// SlotBytes is the resident footprint of the batch's slot frame
	// (per-image slot capacities × N).
	SlotBytes int64
	// DynamicPeakBytes is the batch's caller-owned network output, the
	// one value allocated outside the slot frame.
	DynamicPeakBytes int64
	// PeakBytes is SlotBytes + DynamicPeakBytes: the batch's peak
	// resident payload.
	PeakBytes int64
	// NaiveBytes is the sum of every value's payload across the batch —
	// what an executor without buffer reuse or in-place execution
	// would hold.
	NaiveBytes int64
	// FusedEpilogues counts the elementwise layers folded into conv/FC
	// output writes; FusedConversions counts the conversion instructions
	// absorbed into convolution packs.
	FusedEpilogues   int
	FusedConversions int
	// UnfusedInstructions and UnfusedPeakBytes are the instruction count
	// and peak resident bytes the same plan compiles to with the fusion
	// pass disabled — the baseline the fusion deltas are reported
	// against. For CompileBatchNoFuse programs they equal the program's
	// own figures.
	UnfusedInstructions int
	UnfusedPeakBytes    int64
}

// Program is a compiled, executable lowering of one selector.Plan for
// a fixed minibatch size.
type Program struct {
	Plan *selector.Plan

	// Batch is the minibatch size N this program was compiled for. The
	// instruction stream is N-independent, but the memory plan is not:
	// slot frames are sized by N.
	Batch int

	// Instrs is the topologically ordered instruction stream; an
	// instruction's ID is its index.
	Instrs []Instr
	// SlotCap gives each planned slot's *per-image* capacity in float32
	// elements (the max DataLen over its tenants). A slot's physical
	// buffer holds SlotCap[s] × Batch elements.
	SlotCap []int
	// InstrOf maps each layer id to the instruction computing it.
	InstrOf []int
	// Output is the instruction producing the network output.
	Output int

	Stats Stats
}

func opOf(k dnn.Kind) (Op, error) {
	switch k {
	case dnn.KindInput:
		return OpInput, nil
	case dnn.KindConv:
		return OpConv, nil
	case dnn.KindReLU:
		return OpReLU, nil
	case dnn.KindLRN:
		return OpLRN, nil
	case dnn.KindMaxPool:
		return OpMaxPool, nil
	case dnn.KindAvgPool:
		return OpAvgPool, nil
	case dnn.KindDropout:
		return OpDropout, nil
	case dnn.KindSoftmax:
		return OpSoftmax, nil
	case dnn.KindFC:
		return OpFC, nil
	case dnn.KindConcat:
		return OpConcat, nil
	case dnn.KindAdd:
		return OpAdd, nil
	}
	return 0, fmt.Errorf("program: unsupported layer kind %s", k)
}

// inPlaceable reports whether the op's kernel tolerates dst aliasing
// its donor input (see the kernel contract in kernels.go). Dropout
// in-place degenerates to a pure alias.
func inPlaceable(o Op) bool {
	return o == OpReLU || o == OpAdd || o == OpDropout
}

// DebugVerify, when non-nil, is invoked on every program CompileBatch
// produces, after Validate has accepted it. The independent translation
// validator (internal/verify) registers itself here in tests, so every
// program the suite compiles is re-checked from first principles by
// code that shares nothing with the compiler that built it. Production
// builds leave it nil; it must be set before any CompileBatch call and
// never mutated concurrently with compilation.
var DebugVerify func(*Program) error

// Clone returns a deep copy of the program: the instruction stream,
// per-instruction Args/Succs/Chain slices, slot capacities and layer
// map are all fresh storage. The immutable referents — the Plan, the
// network layers, the primitives — are shared. Mutation tests and
// future plan hot-swapping corrupt or patch clones without touching
// the engine-owned original.
func (p *Program) Clone() *Program {
	q := *p
	q.Instrs = append([]Instr(nil), p.Instrs...)
	for i := range q.Instrs {
		ins := &q.Instrs[i]
		ins.Args = append([]int(nil), ins.Args...)
		ins.Succs = append([]int(nil), ins.Succs...)
		ins.Chain = append([]tensor.Transform(nil), ins.Chain...)
		ins.EpiLayers = append([]*dnn.Layer(nil), ins.EpiLayers...)
		ins.CvtIn = append([]tensor.Transform(nil), ins.CvtIn...)
	}
	q.SlotCap = append([]int(nil), p.SlotCap...)
	q.InstrOf = append([]int(nil), p.InstrOf...)
	return &q
}

// CompileBatch lowers a checked plan into the Program IR for an
// N-image minibatch: emit one instruction per layer (plus one fused
// conversion instruction per legalized edge), link the dependency
// structure, run the liveness analysis that assigns values to reusable
// slots and marks in-place execution, and validate the result.
//
// The plan may be the bucket's own batch-optimized plan (selected by
// selector.SelectBatch at this N) or a batch-agnostic per-image plan;
// a plan selected for a *different* batch bucket is rejected by
// Plan.CheckBatch, so a serving registry cannot silently execute one
// bucket against another bucket's optimization.
//
// The instruction stream is identical for every N; the memory plan is
// sized by N. Every kernel, convolutions included, writes into a
// provided destination, so every value but the network output lives in
// a planned slot and the whole batch executes against a statically
// planned, arena-recycled frame.
func CompileBatch(plan *selector.Plan, batch int) (*Program, error) {
	return compilePlan(plan, batch, true)
}

// CompileBatchNoFuse is CompileBatch with the instruction-fusion pass
// disabled: every epilogue layer and legalized conversion stays a
// separate instruction. It is the unfused baseline: tests compile it to
// pin the pre-fusion stream shape, and its instruction count and peak
// bytes are what a fused compile reports as Stats.Unfused*.
func CompileBatchNoFuse(plan *selector.Plan, batch int) (*Program, error) {
	return compilePlan(plan, batch, false)
}

func compilePlan(plan *selector.Plan, batch int, fuse bool) (*Program, error) {
	if batch < 1 {
		return nil, fmt.Errorf("program: invalid batch size %d", batch)
	}
	if err := plan.CheckBatch(batch); err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	net := plan.Net
	order, err := net.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &Program{
		Plan:    plan,
		Batch:   batch,
		InstrOf: make([]int, net.NumLayers()),
	}
	emit := func(ins Instr) int {
		ins.ID = len(p.Instrs)
		ins.Donor = -1
		p.Instrs = append(p.Instrs, ins)
		return ins.ID
	}
	for _, id := range order {
		l := net.Layers[id]
		op, err := opOf(l.Kind)
		if err != nil {
			return nil, err
		}
		// Predecessors stay in declared graph order: for concat the
		// argument order IS the channel order (and for add, the float
		// summation order), exactly as the sequential oracle executes
		// them.
		preds := net.Preds(id)
		args := make([]int, 0, len(preds))
		for _, pr := range preds {
			v := p.InstrOf[pr]
			if chain := plan.Conversions[[2]int{pr, id}]; len(chain) > 0 {
				pl := net.Layers[pr]
				to := chain[len(chain)-1].To
				v = emit(Instr{
					Op:     OpConvert,
					Name:   pl.Name + "." + to.String(),
					Layer:  l,
					Args:   []int{v},
					C:      pl.OutC,
					H:      pl.OutH,
					W:      pl.OutW,
					Layout: to,
					Chain:  chain,
				})
			}
			args = append(args, v)
		}
		ins := Instr{
			Op:     op,
			Name:   l.Name,
			Layer:  l,
			Args:   args,
			C:      l.OutC,
			H:      l.OutH,
			W:      l.OutW,
			Layout: plan.Layouts[id],
		}
		if l.IsConv() {
			ins.Prim = plan.Primitives[id]
		}
		p.InstrOf[id] = emit(ins)
	}
	p.Output = p.InstrOf[order[len(order)-1]]
	var base *Program
	if fuse {
		base = p.unfusedBaseline()
		p.fuseInstructions()
	}
	p.link()
	p.planMemory()
	p.computeStats()
	if base != nil {
		p.Stats.UnfusedInstructions = base.Stats.Instructions
		p.Stats.UnfusedPeakBytes = base.Stats.PeakBytes
	} else {
		p.Stats.UnfusedInstructions = p.Stats.Instructions
		p.Stats.UnfusedPeakBytes = p.Stats.PeakBytes
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if DebugVerify != nil {
		if err := DebugVerify(p); err != nil {
			return nil, fmt.Errorf("program: translation validation: %w", err)
		}
	}
	return p, nil
}

// unfusedBaseline snapshots the raw pre-fusion stream and runs the
// rest of the compilation pipeline on the copy, yielding the
// instruction count and memory plan the plan would have without
// fusion. Called before fuseInstructions mutates the stream.
func (p *Program) unfusedBaseline() *Program {
	q := &Program{
		Plan:    p.Plan,
		Batch:   p.Batch,
		Output:  p.Output,
		InstrOf: append([]int(nil), p.InstrOf...),
		Instrs:  append([]Instr(nil), p.Instrs...),
	}
	for i := range q.Instrs {
		q.Instrs[i].Args = append([]int(nil), q.Instrs[i].Args...)
	}
	q.link()
	q.planMemory()
	q.computeStats()
	return q
}

// link fills NumDeps and Succs from the argument lists.
func (p *Program) link() {
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		for _, a := range distinct(ins.Args) {
			ins.NumDeps++
			p.Instrs[a].Succs = append(p.Instrs[a].Succs, i)
		}
	}
}

func distinct(ids []int) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		dup := false
		for _, o := range out {
			if o == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// ancestry is the transitive-closure bitset: one row of words per
// instruction, bit i of row j set iff instruction i must complete
// before instruction j can start.
type ancestry struct {
	words int
	bits  []uint64
}

func (p *Program) ancestry() *ancestry {
	n := len(p.Instrs)
	a := &ancestry{words: (n + 63) / 64}
	a.bits = make([]uint64, n*a.words)
	for j := range p.Instrs {
		row := a.bits[j*a.words : (j+1)*a.words]
		for _, pr := range distinct(p.Instrs[j].Args) {
			prow := a.bits[pr*a.words : (pr+1)*a.words]
			for w := range row {
				row[w] |= prow[w]
			}
			row[pr/64] |= 1 << (pr % 64)
		}
	}
	return a
}

// has reports whether i is a strict ancestor of j.
func (a *ancestry) has(j, i int) bool {
	return a.bits[j*a.words+i/64]&(1<<(i%64)) != 0
}

// planMemory runs the liveness analysis: in topological order, decide
// in-place execution, assign out-of-place values to reusable slots, and
// release slots when their tenant's last consumer has been scheduled.
// Slot reuse and in-place donation are both gated on the ancestry
// closure so the plan stays sound when the engine executes independent
// branches concurrently.
func (p *Program) planMemory() {
	n := len(p.Instrs)
	anc := p.ancestry()

	// lastUse[v] is the topologically last consumer of value v (-1 when
	// unconsumed — only the network output).
	lastUse := make([]int, n)
	for v := range lastUse {
		lastUse[v] = -1
	}
	for j := range p.Instrs {
		for _, a := range p.Instrs[j].Args {
			lastUse[a] = j
		}
	}

	type freeSlot struct {
		slot   int
		guards []int // instructions that must be strict ancestors of the next tenant
	}
	var free []freeSlot
	donated := make([]bool, n)

	guardsOK := func(j int, guards []int) bool {
		for _, g := range guards {
			if !anc.has(j, g) {
				return false
			}
		}
		return true
	}

	for j := 0; j < n; j++ {
		ins := &p.Instrs[j]
		ins.Slot = NoSlot

		// In-place: overwrite a dying input's buffer. The donor value
		// must match the output physically, every other consumer of it
		// must be a strict ancestor (so its reads are sealed before this
		// instruction can be dispatched), and the network output is
		// excluded — it must be a fresh, caller-owned allocation.
		if j != p.Output && inPlaceable(ins.Op) {
			for k, a := range ins.Args {
				if k > 0 && (ins.Op != OpAdd || len(ins.Args) != 2) {
					break
				}
				d := &p.Instrs[a]
				if donated[a] || d.Layout != ins.Layout || d.DataLen() != ins.DataLen() {
					continue
				}
				ok := true
				for _, c := range d.Succs {
					if c != j && !anc.has(j, c) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				// AddInto may alias its first input only; a two-input
				// add is commutative bitwise, so promote the donor.
				if k == 1 {
					ins.Args[0], ins.Args[1] = ins.Args[1], ins.Args[0]
					k = 0
				}
				ins.Donor = k
				ins.Alias = ins.Op == OpDropout
				ins.Slot = d.Slot
				donated[a] = true
				break
			}
		}

		if ins.Donor < 0 && j != p.Output {
			// Out-of-place value: claim a reusable slot whose guards are
			// all strict ancestors, preferring the tightest capacity fit;
			// grow or open a slot otherwise.
			need := ins.DataLen()
			best, bestWaste := -1, 0
			for k, f := range free {
				if !guardsOK(j, f.guards) {
					continue
				}
				waste := p.SlotCap[f.slot] - need
				if waste < 0 {
					// Reusing a smaller slot grows it; treat growth as
					// waste so an exact fit wins.
					waste = -waste
				}
				if best < 0 || waste < bestWaste {
					best, bestWaste = k, waste
				}
			}
			if best >= 0 {
				f := free[best]
				free = append(free[:best], free[best+1:]...)
				if p.SlotCap[f.slot] < need {
					p.SlotCap[f.slot] = need
				}
				ins.Slot = f.slot
			} else {
				ins.Slot = len(p.SlotCap)
				p.SlotCap = append(p.SlotCap, need)
			}
		}

		// Deaths: every argument value whose last consumer is this
		// instruction releases its slot (unless its buffer was just
		// donated onward). The guards are the dead value's consumers —
		// once they are ancestors of a future tenant, nothing can still
		// touch the buffer concurrently.
		for _, a := range distinct(ins.Args) {
			if lastUse[a] != j || donated[a] || p.Instrs[a].Slot == NoSlot {
				continue
			}
			free = append(free, freeSlot{slot: p.Instrs[a].Slot, guards: p.Instrs[a].Succs})
		}
	}
}

// computeStats fills p.Stats from the planned stream. Byte figures are
// per-image sums scaled by the planned batch size at the end — every
// value of a batched program is an N-image slab.
func (p *Program) computeStats() {
	s := &p.Stats
	s.Batch = p.Batch
	s.Instructions = len(p.Instrs)
	s.Slots = len(p.SlotCap)
	for _, c := range p.SlotCap {
		s.SlotBytes += int64(c) * 4
	}
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		s.NaiveBytes += ins.Bytes()
		switch {
		case ins.Op == OpConvert:
			s.Conversions++
		case ins.Donor >= 0:
			s.InPlace++
		}
		s.FusedEpilogues += len(ins.EpiLayers)
		if len(ins.CvtIn) > 0 {
			s.FusedConversions++
		}
	}
	// The network output is the only value planMemory leaves unslotted.
	n := int64(p.Batch)
	s.SlotBytes *= n
	s.DynamicPeakBytes = p.Instrs[p.Output].Bytes() * n
	s.NaiveBytes *= n
	s.PeakBytes = s.SlotBytes + s.DynamicPeakBytes
}

// validateFused checks the fused-instruction invariants: which ops may
// carry an epilogue, the epilogue↔EpiLayers↔Args shape coupling, the
// residual operand's physical match, and that absorbed input
// conversions appear only on convolutions.
func (p *Program) validateFused(ins *Instr) error {
	switch ins.Epi {
	case gemm.EpiNone:
		if len(ins.EpiLayers) != 0 {
			return fmt.Errorf("program: instr %q has %d fused layers but no epilogue", ins.Name, len(ins.EpiLayers))
		}
	case gemm.EpiReLU, gemm.EpiAdd, gemm.EpiAddReLU:
		if ins.Op != OpConv && ins.Op != OpFC {
			return fmt.Errorf("program: instr %q (%s) cannot carry epilogue %s", ins.Name, ins.Op, ins.Epi)
		}
		if ins.Op == OpFC && ins.Epi != gemm.EpiReLU {
			return fmt.Errorf("program: fc instr %q carries epilogue %s (relu only)", ins.Name, ins.Epi)
		}
		wantLayers := 1
		if ins.Epi == gemm.EpiAddReLU {
			wantLayers = 2
		}
		if len(ins.EpiLayers) != wantLayers {
			return fmt.Errorf("program: instr %q epilogue %s records %d fused layers, wants %d",
				ins.Name, ins.Epi, len(ins.EpiLayers), wantLayers)
		}
		if ins.Epi == gemm.EpiAdd || ins.Epi == gemm.EpiAddReLU {
			if len(ins.Args) != 2 {
				return fmt.Errorf("program: instr %q epilogue %s has no residual operand", ins.Name, ins.Epi)
			}
			r := &p.Instrs[ins.Args[1]]
			if r.Layout != ins.Layout || r.DataLen() != ins.DataLen() {
				return fmt.Errorf("program: instr %q residual %q mismatches (%s/%d vs %s/%d)",
					ins.Name, r.Name, r.Layout, r.DataLen(), ins.Layout, ins.DataLen())
			}
		}
	default:
		return fmt.Errorf("program: instr %q carries unsupported epilogue %s", ins.Name, ins.Epi)
	}
	if len(ins.CvtIn) > 0 && ins.Op != OpConv {
		return fmt.Errorf("program: instr %q (%s) absorbs an input conversion", ins.Name, ins.Op)
	}
	return nil
}

// Validate checks the structural invariants of the compiled stream,
// including the parallel-safety of the memory plan: any two tenancies
// of one slot must be fully ordered by the dependency DAG, counting
// every instruction that touches the buffer (the tenant, its in-place
// donees, and all their consumers).
func (p *Program) Validate() error {
	n := len(p.Instrs)
	for j := range p.Instrs {
		ins := &p.Instrs[j]
		if ins.ID != j {
			return fmt.Errorf("program: instr %d carries id %d", j, ins.ID)
		}
		for _, a := range ins.Args {
			if a < 0 || a >= j {
				return fmt.Errorf("program: instr %d (%s) consumes out-of-order value %d", j, ins.Name, a)
			}
		}
		switch ins.Op {
		case OpInput:
			if len(ins.Args) != 0 {
				return fmt.Errorf("program: input instr %q has arguments", ins.Name)
			}
		case OpConv:
			if ins.Prim == nil {
				return fmt.Errorf("program: conv instr %q has no primitive", ins.Name)
			}
			wantArgs := 1
			if ins.Epi == gemm.EpiAdd || ins.Epi == gemm.EpiAddReLU {
				wantArgs = 2
			}
			if len(ins.Args) != wantArgs {
				return fmt.Errorf("program: conv instr %q has %d args, wants %d", ins.Name, len(ins.Args), wantArgs)
			}
			wantIn := ins.Prim.In
			if len(ins.CvtIn) > 0 {
				if len(ins.CvtIn) != 1 {
					return fmt.Errorf("program: conv instr %q absorbs a %d-step chain", ins.Name, len(ins.CvtIn))
				}
				if ins.CvtIn[0].To != ins.Prim.In {
					return fmt.Errorf("program: conv instr %q absorbed chain ends at %s, primitive %s wants %s",
						ins.Name, ins.CvtIn[0].To, ins.Prim.Name, ins.Prim.In)
				}
				if !ins.Prim.CanAbsorbInput(ins.CvtIn[0].From) {
					return fmt.Errorf("program: conv instr %q: primitive %s cannot absorb %s input",
						ins.Name, ins.Prim.Name, ins.CvtIn[0].From)
				}
				wantIn = ins.CvtIn[0].From
			}
			if got := p.Instrs[ins.Args[0]].Layout; got != wantIn {
				return fmt.Errorf("program: conv instr %q receives %s, primitive %s wants %s",
					ins.Name, got, ins.Prim.Name, wantIn)
			}
			if ins.Prim.Out != ins.Layout {
				return fmt.Errorf("program: conv instr %q produces %s, primitive emits %s",
					ins.Name, ins.Layout, ins.Prim.Out)
			}
		case OpConvert:
			if len(ins.Chain) == 0 || len(ins.Args) != 1 {
				return fmt.Errorf("program: convert instr %q malformed", ins.Name)
			}
			if got := p.Instrs[ins.Args[0]].Layout; got != ins.Chain[0].From {
				return fmt.Errorf("program: convert instr %q receives %s, chain starts at %s",
					ins.Name, got, ins.Chain[0].From)
			}
			if to := ins.Chain[len(ins.Chain)-1].To; to != ins.Layout {
				return fmt.Errorf("program: convert instr %q produces %s, chain ends at %s",
					ins.Name, ins.Layout, to)
			}
		}
		if err := p.validateFused(ins); err != nil {
			return err
		}
		if ins.Donor >= 0 {
			if !inPlaceable(ins.Op) {
				return fmt.Errorf("program: instr %q (%s) cannot run in place", ins.Name, ins.Op)
			}
			if j == p.Output {
				return fmt.Errorf("program: output instr %q runs in place", ins.Name)
			}
			d := &p.Instrs[ins.Args[ins.Donor]]
			if d.Layout != ins.Layout || d.DataLen() != ins.DataLen() {
				return fmt.Errorf("program: instr %q overwrites mismatched donor %q in place", ins.Name, d.Name)
			}
		}
		if ins.Slot >= 0 {
			if ins.Slot >= len(p.SlotCap) {
				return fmt.Errorf("program: instr %q uses unknown slot %d", ins.Name, ins.Slot)
			}
			if ins.DataLen() > p.SlotCap[ins.Slot] {
				return fmt.Errorf("program: instr %q needs %d elements, slot %d holds %d",
					ins.Name, ins.DataLen(), ins.Slot, p.SlotCap[ins.Slot])
			}
		}
	}
	if p.Instrs[p.Output].Slot != NoSlot || p.Instrs[p.Output].Donor >= 0 {
		return fmt.Errorf("program: output instr %q is not a fresh allocation", p.Instrs[p.Output].Name)
	}

	// Parallel-safety of slot reuse: collect each slot's tenancies (an
	// out-of-place slotted value plus its donation chain) and require
	// every toucher of an earlier tenancy to be a strict ancestor of a
	// later tenancy's allocating instruction.
	anc := p.ancestry()
	donees := make([][]int, n)
	for j := range p.Instrs {
		if ins := &p.Instrs[j]; ins.Donor >= 0 {
			donees[ins.Args[ins.Donor]] = append(donees[ins.Args[ins.Donor]], j)
		}
	}
	touchers := func(alloc int) []int {
		var ts []int
		stack := []int{alloc}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ts = append(ts, v)
			ts = append(ts, p.Instrs[v].Succs...)
			stack = append(stack, donees[v]...)
		}
		return ts
	}
	bySlot := make(map[int][]int)
	for j := range p.Instrs {
		if ins := &p.Instrs[j]; ins.Slot >= 0 && ins.Donor < 0 {
			bySlot[ins.Slot] = append(bySlot[ins.Slot], j)
		}
	}
	for slot, tenants := range bySlot {
		sort.Ints(tenants)
		for i := 0; i < len(tenants); i++ {
			ts := touchers(tenants[i])
			for k := i + 1; k < len(tenants); k++ {
				for _, t := range ts {
					if !anc.has(tenants[k], t) {
						return fmt.Errorf(
							"program: slot %d reused by %q while %q may still touch it concurrently",
							slot, p.Instrs[tenants[k]].Name, p.Instrs[t].Name)
					}
				}
			}
		}
	}
	return nil
}
