package transform

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// ClosureStats reports closure-conversion results. Every Closure created
// here corresponds to a function value the optimizer could not eliminate —
// the residual higher-order overhead measured in Table 2.
type ClosureStats struct {
	Closures  int  // closure records introduced
	Lifted    int  // continuations lambda-lifted to top level
	Saturated bool // round cap reached while still converting
}

// ClosureConvertWith lowers residual first-class continuations: every
// continuation that escapes as a value is lambda-lifted (its free values
// become parameters, via mangling) and replaced at its value uses by a
// Closure primop pairing the lifted code with the captured environment.
//
// Direct jumps are left untouched: in control-flow form they compile to
// plain branches and calls. Only uses that survive as data require closure
// records, so running the optimizer first (LowerToCFFWith) minimizes this
// pass's output.
//
// Scopes are read through an optional analysis cache (nil = compute fresh);
// scopes of continuations that need no conversion stay
// cached, and a conversion's mutations stamp the defs they touch so the
// cache evicts exactly the entries that went stale. A mangling failure
// aborts the pass with the stats so far.
func ClosureConvertWith(w *ir.World, ac *analysis.Cache) (ClosureStats, error) {
	var stats ClosureStats
	const maxRounds = 32
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, k := range w.Continuations() {
			if k.IsIntrinsic() || !k.HasBody() {
				continue
			}
			// The scope is built only for a candidate: a continuation with
			// a value use, or a returning one with a direct call to test
			// for capture. Most continuations are neither.
			var s *analysis.Scope
			scope := func() *analysis.Scope {
				if s == nil {
					s = ac.ScopeOf(k)
				}
				return s
			}
			var valueUses []ir.Use
			for _, u := range k.Uses() {
				if isValueUse(u) {
					valueUses = append(valueUses, u)
					continue
				}
				// A direct call to a *capturing* returning continuation from
				// outside its own scope cannot become a plain function call:
				// route it through a closure as well. (Calls to blocks and to
				// top-level functions stay direct.)
				if caller, ok := u.Def.(*ir.Continuation); ok && k.IsReturning() && u.Index == 0 {
					if ks := scope(); !ks.TopLevel() && !ks.Contains(caller) {
						valueUses = append(valueUses, u)
					}
				}
			}
			if len(valueUses) == 0 {
				continue
			}
			s = scope()
			stats.Closures++
			changed = true

			// Lambda-lift if the continuation captures enclosing values.
			code := k
			lift := paramDependentFrontier(s)
			if len(lift) > 0 {
				var err error
				code, err = Mangle(s, make([]ir.Def, k.NumParams()), lift)
				if err != nil {
					return stats, err
				}
				code.SetName(k.Name() + ".lifted")
				stats.Lifted++
			}
			clo := w.Closure(k.FnType(), code, lift...)

			for _, u := range valueUses {
				switch user := u.Def.(type) {
				case *ir.Continuation:
					if u.Index == 0 {
						user.Jump(clo, user.Args()...)
						continue
					}
					args := append([]ir.Def(nil), user.Args()...)
					args[u.Index-1] = clo
					user.Jump(user.Callee(), args...)
				case *ir.PrimOp:
					ops := make([]ir.Def, user.NumOps())
					copy(ops, user.Ops())
					ops[u.Index] = clo
					nu, err := Rebuild(w, user, ops)
					if err != nil {
						return stats, err
					}
					if err := ReplaceUses(w, user, nu); err != nil {
						return stats, err
					}
				}
			}
		}
		// Converting a nested lambda can introduce its captured values as
		// closure-environment operands inside an *already lifted* enclosing
		// function, making that function capture again. Re-lift any closure
		// code that is no longer closed; the cascade terminates at the
		// function that actually defines the values.
		for _, k := range w.Continuations() {
			if k.IsIntrinsic() || !k.HasBody() {
				continue
			}
			var cloUses []*ir.PrimOp
			for _, u := range k.Uses() {
				if p, ok := u.Def.(*ir.PrimOp); ok && p.OpKind() == ir.OpClosure && u.Index == 0 {
					cloUses = append(cloUses, p)
				}
			}
			if len(cloUses) == 0 {
				continue
			}
			s := ac.ScopeOf(k)
			lift := paramDependentFrontier(s)
			if len(lift) == 0 {
				continue
			}
			code, err := Mangle(s, make([]ir.Def, k.NumParams()), lift)
			if err != nil {
				return stats, err
			}
			code.SetName(k.Name() + ".relift")
			stats.Lifted++
			changed = true
			for _, clo := range cloUses {
				env := append(append([]ir.Def(nil), clo.Ops()[1:]...), lift...)
				if err := ReplaceUses(w, clo, w.Closure(clo.Type().(*ir.FnType), code, env...)); err != nil {
					return stats, err
				}
			}
		}
		if !changed {
			break
		}
		if round == maxRounds-1 {
			stats.Saturated = true
		}
	}
	etaExpandRetArgs(w)
	if _, err := CleanupWith(w, ac); err != nil {
		return stats, err
	}
	return stats, nil
}

// etaExpandRetArgs normalizes calls whose return-continuation argument is
// neither a continuation nor the caller's own return parameter (e.g. a
// closure value): the argument is wrapped in a fresh forwarding block. After
// this pass a backend's call protocol only ever returns into a block or
// performs a tail return.
func etaExpandRetArgs(w *ir.World) int {
	n := 0
	for _, c := range w.Continuations() {
		if !c.HasBody() {
			continue
		}
		ft, ok := c.Callee().Type().(*ir.FnType)
		if !ok || !ir.ReturnsValue(ft) {
			continue
		}
		last := c.NumArgs() - 1
		r := c.Arg(last)
		if _, isCont := r.(*ir.Continuation); isCont {
			continue
		}
		if p, isParam := r.(*ir.Param); isParam && p == p.Cont().RetParam() {
			continue // a genuine tail call
		}
		rt := ft.Params[last].(*ir.FnType)
		kw := w.Continuation(rt, "retw")
		fwd := make([]ir.Def, kw.NumParams())
		for i := range fwd {
			fwd[i] = kw.Param(i)
		}
		kw.Jump(r, fwd...)
		args := append([]ir.Def(nil), c.Args()...)
		args[last] = kw
		c.Jump(c.Callee(), args...)
		n++
	}
	return n
}

// isValueUse reports whether u treats the subject continuation as a
// first-class value rather than as a jump target or conventional return
// continuation.
func isValueUse(u ir.Use) bool {
	switch user := u.Def.(type) {
	case *ir.PrimOp:
		// As the code operand of an existing closure it is already lowered.
		return !(user.OpKind() == ir.OpClosure && u.Index == 0)
	case *ir.Continuation:
		if u.Index == 0 {
			return false // callee position
		}
		callee := user.Callee()
		if c, ok := callee.(*ir.Continuation); ok && c.IsIntrinsic() {
			return false // branch targets, intrinsic return continuations
		}
		ft, ok := callee.Type().(*ir.FnType)
		if !ok {
			return true
		}
		argPos := u.Index - 1
		if argPos == len(ft.Params)-1 && ir.IsRetContType(ft.Params[argPos]) {
			// Return-continuation position: handled by the call protocol.
			return false
		}
		return true
	}
	return false
}

// paramDependentFrontier returns the free defs of s that transitively
// depend on a parameter of an enclosing scope — exactly the values a
// lambda-lifted copy must receive as arguments. Constants, globals and
// top-level continuations stay free.
func paramDependentFrontier(s *analysis.Scope) []ir.Def {
	memo := map[ir.Def]bool{}
	var dep func(d ir.Def) bool
	dep = func(d ir.Def) bool {
		if v, ok := memo[d]; ok {
			return v
		}
		memo[d] = false // cycle guard
		v := false
		switch d := d.(type) {
		case *ir.Param:
			v = true
		case *ir.PrimOp:
			for _, op := range d.Ops() {
				if dep(op) {
					v = true
					break
				}
			}
		}
		memo[d] = v
		return v
	}
	var out []ir.Def
	for _, f := range s.FreeDefs() {
		if dep(f) {
			out = append(out, f)
		}
	}
	return out
}
