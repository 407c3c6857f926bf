package program

import (
	"fmt"
	"strings"
)

// Source renders the program as the readable call-sequence listing the
// paper's §5.2 code generator would emit — one line per instruction,
// in execution order, annotated with the memory plan. The same
// instruction stream the engine executes produces this listing, so the
// printout can never drift from what actually runs.
func (p *Program) Source() string {
	var b strings.Builder
	plan := p.Plan
	fmt.Fprintf(&b, "// program for %s (strategy=%s threads=%d)\n",
		plan.Net.Name, plan.Strategy, plan.Threads)
	fmt.Fprintf(&b, "// predicted cost: %.3f ms (nodes %.3f + transforms %.3f)\n",
		plan.TotalCost()*1e3, plan.NodeCost*1e3, plan.EdgeCost*1e3)
	s := p.Stats
	fmt.Fprintf(&b, "// %d instructions (%d conversions, %d in-place), %d slots, batch %d\n",
		s.Instructions, s.Conversions, s.InPlace, s.Slots, p.Batch)
	if s.FusedEpilogues > 0 || s.FusedConversions > 0 {
		fmt.Fprintf(&b, "// fusion: %d epilogue layers + %d conversions folded; %d instructions vs %d unfused (Δ%d), peak resident %s vs %s unfused\n",
			s.FusedEpilogues, s.FusedConversions, s.Instructions, s.UnfusedInstructions,
			s.UnfusedInstructions-s.Instructions, fmtBytes(s.PeakBytes), fmtBytes(s.UnfusedPeakBytes))
	}
	// Byte figures are batch totals: a batched program's slots hold
	// N-image slabs, so what actually sits resident scales with N.
	per := ""
	if p.Batch > 1 {
		per = fmt.Sprintf(" [%s/image]", fmtBytes(s.PeakBytes/int64(p.Batch)))
	}
	fmt.Fprintf(&b, "// peak resident %s for the batch%s (slots %s + output %s; unplanned would hold %s)\n",
		fmtBytes(s.PeakBytes), per, fmtBytes(s.SlotBytes), fmtBytes(s.DynamicPeakBytes), fmtBytes(s.NaiveBytes))
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		fmt.Fprintf(&b, "%s = %s  // %s\n", ins.Name, p.call(ins), p.annotate(ins))
	}
	fmt.Fprintf(&b, "// memory plan: %d slots, %s for batch %d\n", len(p.SlotCap), fmtBytes(s.SlotBytes), p.Batch)
	for slot, cap := range p.SlotCap {
		var tenants []string
		for i := range p.Instrs {
			if p.Instrs[i].Slot == slot {
				tenants = append(tenants, p.Instrs[i].Name)
			}
		}
		fmt.Fprintf(&b, "//   slot %2d: %9d B  %s\n", slot, int64(cap)*4*int64(p.Batch), strings.Join(tenants, ", "))
	}
	return b.String()
}

// call renders an instruction's right-hand side. Fused instructions
// render explicitly: an epilogue appends "+relu"/"+add"/"+add+relu" to
// the callee, an absorbed input conversion inserts a ⟨cvt-in:FROM⟩
// marker, and an EpiAdd residual appears as a second argument.
func (p *Program) call(ins *Instr) string {
	names := make([]string, len(ins.Args))
	for i, a := range ins.Args {
		names[i] = p.Instrs[a].Name
	}
	args := strings.Join(names, ", ")
	switch ins.Op {
	case OpInput:
		return "input()"
	case OpConv:
		callee := ins.Prim.Name
		if len(ins.CvtIn) > 0 {
			callee += fmt.Sprintf("⟨cvt-in:%s⟩", ins.CvtIn[0].From)
		}
		callee += epiSuffix(ins)
		return fmt.Sprintf("%s(%s)", callee, args)
	case OpConvert:
		// A fused chain renders as nested direct-transform calls.
		arg := names[0]
		for _, tr := range ins.Chain {
			arg = fmt.Sprintf("%s(%s)", tr.Name, arg)
		}
		return arg
	default:
		return fmt.Sprintf("%s%s(%s)", ins.Op, epiSuffix(ins), args)
	}
}

// epiSuffix renders the fused-epilogue marker ("+relu", "+add",
// "+add+relu"), empty for unfused instructions.
func epiSuffix(ins *Instr) string {
	if len(ins.EpiLayers) == 0 {
		return ""
	}
	return "+" + ins.Epi.String()
}

// annotate renders an instruction's trailing comment: operator detail,
// value shape and layout, and where its output lives.
func (p *Program) annotate(ins *Instr) string {
	var parts []string
	switch ins.Op {
	case OpConv:
		parts = append(parts, fmt.Sprintf("%s, %s→%s", ins.Layer.Conv, ins.Prim.In, ins.Prim.Out))
	case OpConvert:
		parts = append(parts, fmt.Sprintf("%s→%s", ins.Chain[0].From, ins.Layout))
	default:
		parts = append(parts, ins.Layout.String())
	}
	parts = append(parts, fmt.Sprintf("%d×%d×%d", ins.C, ins.H, ins.W))
	if len(ins.EpiLayers) > 0 {
		names := make([]string, len(ins.EpiLayers))
		for i, fl := range ins.EpiLayers {
			names[i] = fl.Name
		}
		parts = append(parts, "fuses "+strings.Join(names, "+"))
	}
	switch {
	case ins.Alias:
		parts = append(parts, fmt.Sprintf("alias of %s", p.Instrs[ins.Args[ins.Donor]].Name))
	case ins.Donor >= 0:
		parts = append(parts, fmt.Sprintf("in-place over %s", p.Instrs[ins.Args[ins.Donor]].Name))
	case ins.ID == p.Output:
		parts = append(parts, "fresh (caller-owned)")
	case ins.Slot == NoSlot:
		parts = append(parts, "dynamic")
	default:
		parts = append(parts, fmt.Sprintf("slot %d", ins.Slot))
	}
	return strings.Join(parts, ", ")
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
