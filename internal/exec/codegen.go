package exec

import (
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
)

// GenerateProgram emits the plan as a readable call-sequence program,
// the textual analogue of the paper's "simple code generator which
// emitted calls to primitive operations in our library" (§5.2). It is
// a pretty-printer over the compiled Program IR — the very instruction
// stream the batched engine executes — so the listing shows, in
// execution order, every primitive invocation, every fused legalizing
// layout conversion, and the static memory plan (slot assignments,
// in-place execution, peak resident footprint).
func GenerateProgram(plan *selector.Plan) (string, error) {
	prog, err := program.CompileBatch(plan, 1)
	if err != nil {
		return "", err
	}
	return prog.Source(), nil
}
