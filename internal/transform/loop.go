package transform

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// Peel copies the scope of a loop entry so the copy executes exactly one
// iteration: its back edges jump the *original* entry. Callers can then be
// redirected to the copy, peeling the first iteration out of the loop —
// the paper's observation that loop peeling is lambda mangling with the
// recursion rewiring turned off.
func Peel(s *analysis.Scope) *ir.Continuation {
	m := &Mangler{
		w:       s.Entry.World(),
		scope:   s,
		entry:   s.Entry,
		args:    make([]ir.Def, s.Entry.NumParams()),
		old2new: make(map[ir.Def]ir.Def),
		srcBody: make(map[*ir.Continuation]*ir.Continuation),
		peel:    true,
	}
	c := m.run()
	if m.err != nil {
		panic(m.err) // unreachable: Rebuild handles every constructor-built kind
	}
	c.SetName(s.Entry.Name() + ".peel")
	return c
}

// PeelAt peels one iteration of the loop entered at entry and redirects
// every external call site to the peeled copy. Returns the copy.
func PeelAt(w *ir.World, entry *ir.Continuation) *ir.Continuation {
	s := analysis.NewScope(entry)
	callers := externalCallers(entry, s) // snapshot before cloning!
	peeled := Peel(s)
	for _, caller := range callers {
		caller.Jump(peeled, caller.Args()...)
	}
	return peeled
}

// externalCallers returns the continuations that call entry from outside
// its own scope (i.e. excluding back edges).
func externalCallers(entry *ir.Continuation, s *analysis.Scope) []*ir.Continuation {
	var out []*ir.Continuation
	entry.EachUse(func(u ir.Use) bool {
		if caller, ok := u.Def.(*ir.Continuation); ok && u.Index == 0 && !s.Contains(caller) {
			out = append(out, caller)
		}
		return true
	})
	return out
}

// Unroll replicates the loop entered at entry `factor` times: copy i's back
// edges jump copy (i+1) mod factor, so one trip around the unrolled body
// performs `factor` iterations of the original loop. External call sites are
// redirected to copy 0. Returns the copies.
//
// The construction is pure mangling plus a back-edge patch pass: each copy
// is produced by Peel (back edges at the original entry), then the back
// edges are re-pointed along the cycle.
func Unroll(w *ir.World, entry *ir.Continuation, factor int) []*ir.Continuation {
	if factor < 2 {
		return []*ir.Continuation{entry}
	}
	s := analysis.NewScope(entry)
	callers := externalCallers(entry, s) // snapshot before cloning!
	copies := make([]*ir.Continuation, factor)
	for i := range copies {
		copies[i] = Peel(s)
		copies[i].SetName(entry.Name() + ".unroll")
	}
	// Patch back edges: inside copy i, jumps to the original entry become
	// jumps to copy (i+1) mod factor.
	for i, c := range copies {
		next := copies[(i+1)%factor]
		cs := analysis.NewScope(c)
		for _, cc := range cs.Conts {
			if cc.HasBody() && cc.Callee() == entry {
				cc.Jump(next, cc.Args()...)
			}
		}
	}
	// External callers enter the cycle at copy 0.
	for _, caller := range callers {
		caller.Jump(copies[0], caller.Args()...)
	}
	return copies
}
