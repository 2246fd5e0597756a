package transform

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// PEStats reports what the partial evaluator did.
type PEStats struct {
	Specialized int
	Inlined     int
	Saturated   bool
}

// peSizeThreshold is the scope size (in continuations) below which calls
// with known arguments are specialized unconditionally.
const peSizeThreshold = 12

// maxPESpecializations bounds the online evaluator (the paper's follow-on
// work shows naive online PE diverges on recursive programs).
const maxPESpecializations = 2048

// PartialEvalWith is a simple online partial evaluator over the CPS graph: a
// call that binds literal values to parameters of a small (or
// AlwaysInline-marked) callee is replaced by a call to a copy of the callee
// specialized to those values. Because specialization uses lambda mangling,
// constant folding inside the world simplifies the copy while it is built.
// Scopes are served from ac (nil = compute fresh). A mangling failure
// aborts the evaluator with the stats so far. The specialize-then-rescan
// mechanics are shared with LowerToCFFWith through specializer.
func PartialEvalWith(w *ir.World, ac *analysis.Cache) (PEStats, error) {
	var stats PEStats
	wl := newContWorklist(w.Continuations())
	sp := newSpecializer(ac, ".pe", wl)

	for {
		caller, ok := wl.pop()
		if !ok {
			break
		}
		if !caller.HasBody() {
			continue
		}
		callee, ok := caller.Callee().(*ir.Continuation)
		if !ok || !callee.HasBody() || callee.IsIntrinsic() || callee.NoInline || callee == caller {
			continue
		}
		if !callee.IsReturning() {
			// Specializing a local (block-like) continuation on a literal
			// argument is loop unrolling: on data-dependent loops it never
			// terminates (the naive online PE divergence the paper warns
			// about). Only specialize function calls.
			continue
		}
		args := literalArgs(callee, caller.Args())
		if args == nil {
			continue
		}
		if !callee.AlwaysInline {
			if len(ac.ScopeOf(callee).Conts) > peSizeThreshold {
				continue
			}
		}
		if stats.Specialized >= maxPESpecializations {
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

// literalArgs returns a specialization vector binding literal-valued
// first-order params, or nil if there are none.
func literalArgs(callee *ir.Continuation, args []ir.Def) []ir.Def {
	ft := callee.FnType()
	if len(args) != len(ft.Params) {
		return nil
	}
	out := make([]ir.Def, len(args))
	any := false
	for i := range ft.Params {
		if ir.IsLit(args[i]) {
			out[i] = args[i]
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// InlineOnceWith inlines every continuation that is called from exactly one
// place and not otherwise referenced — this never grows code — with scopes
// served from ac (nil = compute fresh). It returns the number of call sites
// inlined. The bool result reports saturation: the round cap was reached
// while call sites were still being inlined, so another run could make
// progress.
func InlineOnceWith(w *ir.World, ac *analysis.Cache) (int, bool, error) {
	n := 0
	const maxRounds = 16
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, callee := range w.Continuations() {
			if callee.IsExtern() || callee.IsIntrinsic() || !callee.HasBody() {
				continue
			}
			if !callee.IsReturning() {
				continue // block-like conts are already local control flow
			}
			if callee.NumUses() != 1 {
				continue
			}
			var use ir.Use
			callee.EachUse(func(u ir.Use) bool { use = u; return false })
			if use.Def == nil || use.Index != 0 {
				continue
			}
			caller, ok := use.Def.(*ir.Continuation)
			if !ok || caller == callee || !caller.HasBody() {
				continue
			}
			if inlineCallWith(caller, ac) {
				n++
				changed = true
			}
		}
		if !changed {
			return n, false, nil
		}
		if _, err := CleanupWith(w, ac); err != nil {
			return n, false, err
		}
		if round == maxRounds-1 {
			return n, true, nil
		}
	}
	return n, false, nil
}
