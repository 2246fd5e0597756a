package transform

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// ContifyWith turns functions whose every call site passes the *same* return
// continuation into local control flow of that continuation's scope: the
// return parameter is dropped (one more instance of lambda mangling), so the
// function's "returns" become direct jumps and the callee fuses into the
// caller's control-flow graph.
//
// This is the classical contification optimization; in the mangling
// framework it is a one-call specialization.
//
// Scopes are read through an optional analysis cache (nil = compute fresh).
// A cached scope is served only while the world's rewrite generation is
// unchanged, so a specialization's mutations stale every entry and the
// mutation-free probing stretches stay cache hits. The bool result reports
// saturation: the round cap was reached while still contifying, so another
// run could make progress. A mangling failure aborts the pass with the count
// so far.
func ContifyWith(w *ir.World, ac *analysis.Cache) (int, bool, error) {
	n := 0
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, f := range w.Continuations() {
			if f.IsExtern() || f.IsIntrinsic() || !f.HasBody() || !f.IsReturning() {
				continue
			}
			k := commonRetArg(f)
			if k == nil {
				continue
			}
			// Specialize the return parameter to k. Recursive calls passing
			// k are rewired to the specialized entry by Mangle itself.
			args := make([]ir.Def, f.NumParams())
			args[f.NumParams()-1] = k
			spec, err := Drop(ac.ScopeOf(f), args)
			if err != nil {
				return n, false, err
			}
			spec.SetName(f.Name() + ".cont")
			// One use per caller at index 0 and Jump creates no nodes, so the
			// snapshot iteration is order-independent.
			f.EachUse(func(u ir.Use) bool {
				if caller, ok := u.Def.(*ir.Continuation); ok && u.Index == 0 {
					kept := caller.Args()[:caller.NumArgs()-1]
					caller.Jump(spec, kept...)
				}
				return true
			})
			n++
			changed = true
		}
		if !changed {
			break
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

// commonRetArg returns the single continuation passed as f's return argument
// at every external call site, or nil if call sites disagree, any use is not
// a direct call, or the continuation is not viable (an intrinsic).
// Recursive call sites inside f's own scope that forward f's ret param are
// ignored — they stay self-recursive after specialization.
func commonRetArg(f *ir.Continuation) *ir.Continuation {
	var common *ir.Continuation
	external := 0
	bad := false
	// Every site must agree on the answer, so visit order is moot and the
	// allocation-free snapshot iteration is safe.
	f.EachUse(func(u ir.Use) bool {
		caller, ok := u.Def.(*ir.Continuation)
		if !ok || u.Index != 0 {
			bad = true // escapes as a value
			return false
		}
		if caller.NumArgs() != f.NumParams() {
			bad = true
			return false
		}
		last := caller.Arg(caller.NumArgs() - 1)
		if p, ok := last.(*ir.Param); ok && p == f.RetParam() {
			// A self-recursive tail call; neutral.
			return true
		}
		k, ok := last.(*ir.Continuation)
		if !ok || k.IsIntrinsic() {
			bad = true
			return false
		}
		if common == nil {
			common = k
		} else if common != k {
			bad = true
			return false
		}
		external++
		return true
	})
	if bad || external == 0 {
		return nil
	}
	return common
}
