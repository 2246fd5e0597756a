package transform

import (
	"fmt"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// CFFStats reports the outcome of control-flow-form conversion.
type CFFStats struct {
	Specialized int  // higher-order call sites specialized away
	Saturated   bool // budget exhausted before reaching a fixed point
}

// maxCFFSpecializations bounds code growth; conversion to control-flow form
// does not terminate for programs that fabricate unboundedly many distinct
// continuations.
const maxCFFSpecializations = 4096

// LowerToCFFWith converts the program towards control-flow form (the paper's
// lambda-dropping step): every call that passes a statically known
// continuation to a higher-order (non-return) parameter is rewritten to call
// a specialized copy of the callee in which that parameter is dropped.
//
// After a successful run every residual continuation is either a basic block
// (first-order params only) or a global function (first-order params plus a
// return continuation) — the forms a classical SSA backend can consume.
// A mangling failure aborts the conversion with the stats so far.
//
// Scopes are served from ac (nil = compute fresh). The worklist keeps
// conversion cost proportional to the code it actually touches: rewriting a
// jump enqueues the new callee's scope instead of rescanning the whole world
// each round. The specialize-then-rescan mechanics are shared with
// PartialEvalWith through specializer.
func LowerToCFFWith(w *ir.World, ac *analysis.Cache) (CFFStats, error) {
	var stats CFFStats
	wl := newContWorklist(w.Continuations())
	sp := newSpecializer(ac, ".cff", wl)

	for {
		caller, ok := wl.pop()
		if !ok {
			break
		}
		if !caller.HasBody() {
			continue
		}
		callee, ok := caller.Callee().(*ir.Continuation)
		if !ok || !callee.HasBody() || callee.IsIntrinsic() || callee.NoInline {
			continue
		}
		args := droppableArgs(callee, caller.Args())
		if args == nil {
			continue
		}
		if stats.Specialized >= maxCFFSpecializations {
			stats.Saturated = true
			break
		}
		if _, err := sp.specialize(caller, callee, args); err != nil {
			return stats, err
		}
		stats.Specialized++
	}
	if _, err := CleanupWith(w, ac); err != nil {
		return stats, err
	}
	return stats, nil
}

// droppableArgs returns a specialization vector for a call to callee, or nil
// if the call has no higher-order parameter bound to a known continuation.
// The trailing return-continuation position is exempt: return continuations
// are permitted by control-flow form and handled by the calling convention.
func droppableArgs(callee *ir.Continuation, args []ir.Def) []ir.Def {
	ft := callee.FnType()
	if len(args) != len(ft.Params) {
		return nil
	}
	out := make([]ir.Def, len(args))
	any := false
	for i, pt := range ft.Params {
		if ir.Order(pt) == 0 {
			continue
		}
		if i == len(ft.Params)-1 && ir.IsRetContType(pt) {
			continue // conventional return continuation
		}
		if c, ok := args[i].(*ir.Continuation); ok && !c.IsIntrinsic() {
			out[i] = c
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

func specKey(callee *ir.Continuation, args []ir.Def) string {
	key := fmt.Sprintf("%d", callee.GID())
	for i, a := range args {
		if a != nil {
			key += fmt.Sprintf(":%d=%d", i, a.GID())
		}
	}
	return key
}

// InCFF reports whether every continuation of the world with a body is in
// control-flow form (basic block or returning function per the paper's
// definition).
func InCFF(w *ir.World) bool {
	for _, c := range w.Continuations() {
		if !c.HasBody() && !c.IsIntrinsic() && !c.IsExtern() {
			continue
		}
		if c.IsIntrinsic() {
			continue
		}
		if !ir.IsCFFType(c.FnType()) {
			return false
		}
	}
	return true
}

// HigherOrderConts returns the continuations whose type violates
// control-flow form (the metric of Table 2).
func HigherOrderConts(w *ir.World) []*ir.Continuation {
	var out []*ir.Continuation
	for _, c := range w.Continuations() {
		if c.IsIntrinsic() {
			continue
		}
		if !ir.IsCFFType(c.FnType()) {
			out = append(out, c)
		}
	}
	return out
}
