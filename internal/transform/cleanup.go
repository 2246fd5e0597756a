package transform

import (
	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// CleanupStats reports what a cleanup round removed or rewired.
type CleanupStats struct {
	RemovedConts int  // unreachable continuations deleted
	EtaReduced   int  // continuations replaced by their eta-equal callee
	DeadParams   int  // parameters eliminated
	DeadStores   int  // stores overwritten before any same-region read
	Saturated    bool // round cap reached while still making progress
}

// changed reports whether the round did any work (saturation aside).
func (s CleanupStats) changed() bool {
	return s.RemovedConts != 0 || s.EtaReduced != 0 || s.DeadParams != 0 || s.DeadStores != 0
}

// CleanupWith removes continuations unreachable from the extern roots,
// eta-reduces forwarder continuations, and eliminates dead parameters. It
// iterates to a fixed point, with scopes served from ac (nil = compute
// fresh). A Rebuild failure inside eta-reduction aborts with the stats so
// far.
func CleanupWith(w *ir.World, ac *analysis.Cache) (CleanupStats, error) {
	var total CleanupStats
	const maxRounds = 32
	for round := 0; round < maxRounds; round++ {
		s, err := cleanupRound(w, ac)
		total.RemovedConts += s.RemovedConts
		total.EtaReduced += s.EtaReduced
		total.DeadParams += s.DeadParams
		total.DeadStores += s.DeadStores
		if err != nil {
			return total, err
		}
		if !s.changed() {
			break
		}
		if round == maxRounds-1 {
			total.Saturated = true
		}
	}
	return total, nil
}

func cleanupRound(w *ir.World, ac *analysis.Cache) (CleanupStats, error) {
	var stats CleanupStats
	var err error
	stats.EtaReduced, err = etaReduce(w)
	if err != nil {
		return stats, err
	}
	stats.DeadParams = eliminateDeadParams(w, ac)
	stats.DeadStores, err = deadStoreElim(w)
	if err != nil {
		return stats, err
	}
	stats.RemovedConts = sweepUnreachable(w)
	return stats, nil
}

// deadStoreElim kills stores whose cell is overwritten later in the same
// body by a store through the identical pointer, with no may-aliasing load
// in between. The chain trace guarantees the window is a straight line of
// slots, allocs, loads and stores — no calls, no branches — so the only
// reads that can observe the store are the chain's own loads, and the
// region oracle decides which of those can touch the cell.
func deadStoreElim(w *ir.World) (int, error) {
	killed := 0
	oracle := analysis.NewAliasOracle()
	for _, c := range w.Continuations() {
		if c.IsIntrinsic() || !c.HasBody() {
			continue
		}
		ops, ok := traceMemChain(c)
		if !ok {
			continue
		}
		var kills []*ir.PrimOp
	scan:
		for i, s1 := range ops {
			if s1.OpKind() != ir.OpStore {
				continue
			}
			ptr := s1.Op(1)
			for _, op := range ops[i+1:] {
				switch op.OpKind() {
				case ir.OpLoad:
					if oracle.MayAlias(op.Op(1), ptr) {
						continue scan // the stored value is (maybe) read
					}
				case ir.OpStore:
					if op.Op(1) == ptr {
						kills = append(kills, s1)
						continue scan
					}
					// A store through a different pointer reads nothing:
					// even a may-aliasing one cannot observe s1's value.
				}
			}
		}
		// Later victims first: splicing a store out rebuilds only its
		// chain suffix, so the earlier victims keep their identity.
		for i := len(kills) - 1; i >= 0; i-- {
			s1 := kills[i]
			if s1.NumUses() != 1 {
				continue // an earlier splice rewired the chain around s1
			}
			// When the chain successor is an identical store (same cell,
			// same value), splicing s1 would rebuild the successor into
			// the very node being removed, and ReplaceUses' transitive
			// resolve would collapse both stores. Drop the successor
			// instead — it is the redundant copy — which cannot collide:
			// s1 keeps its identity and inherits the successor's consumer.
			succ, _ := s1.Uses()[0].Def.(*ir.PrimOp)
			if succ != nil && succ.OpKind() == ir.OpStore &&
				succ.Op(1) == s1.Op(1) && succ.Op(2) == s1.Op(2) {
				if err := ReplaceUses(w, succ, s1); err != nil {
					return killed, err
				}
			} else if err := ReplaceUses(w, s1, s1.Op(0)); err != nil {
				return killed, err
			}
			killed++
		}
	}
	return killed, nil
}

// sweepUnreachable removes every continuation not reachable from an extern
// root through operand edges. Reachability is marked in a slice indexed by
// gid, and the dead continuations leave the world in one batch.
func sweepUnreachable(w *ir.World) int {
	seen := make([]bool, w.Generation()+1)
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		if seen[d.GID()] {
			return
		}
		seen[d.GID()] = true
		for _, op := range d.Ops() {
			visit(op)
		}
	}
	for _, c := range w.Externs() {
		visit(c)
	}

	var dead []*ir.Continuation
	for _, c := range w.Continuations() {
		if !seen[c.GID()] {
			dead = append(dead, c)
		}
	}
	for _, c := range dead {
		c.Unset()
	}
	w.RemoveContinuations(dead)
	return len(dead)
}

// etaReduce replaces continuations of the shape k(p0..pn) = g(p0..pn) with g
// itself wherever k is referenced.
func etaReduce(w *ir.World) (int, error) {
	n := 0
	for _, k := range w.Continuations() {
		if k.IsExtern() || k.IsIntrinsic() || !k.HasBody() {
			continue
		}
		if k.NumArgs() != k.NumParams() {
			continue
		}
		callee := k.Callee()
		if callee == k {
			continue
		}
		if c, ok := callee.(*ir.Continuation); ok && c.IsIntrinsic() {
			continue
		}
		match := true
		for i, a := range k.Args() {
			// Each param must be forwarded in place and must have no other
			// use: if the callee's scope referenced k's params in any other
			// way, replacing k would leave those references dangling.
			if a != k.Param(i) || k.Param(i).NumUses() != 1 {
				match = false
				break
			}
		}
		if !match || k.NumUses() == 0 {
			continue
		}
		// If the replacement is not itself a continuation (e.g. a return
		// parameter), k may only be replaced at callee positions: branch
		// targets and value uses need a real continuation.
		if _, isCont := callee.(*ir.Continuation); !isCont {
			calleeOnly := true
			k.EachUse(func(u ir.Use) bool {
				if u.Index != 0 {
					calleeOnly = false
					return false
				}
				if _, ok := u.Def.(*ir.Continuation); !ok {
					calleeOnly = false
					return false
				}
				return true
			})
			if !calleeOnly {
				continue
			}
		}
		if err := ReplaceUses(w, k, callee); err != nil {
			return n, err
		}
		k.Unset()
		n++
	}
	return n, nil
}

// eliminateDeadParams drops parameters without uses from continuations whose
// every use is a direct call.
func eliminateDeadParams(w *ir.World, ac *analysis.Cache) int {
	n := 0
	for _, c := range w.Continuations() {
		if c.IsExtern() || c.IsIntrinsic() || !c.HasBody() || c.NumUses() == 0 {
			continue
		}
		var deadIdx []int
		for i, p := range c.Params() {
			if p.NumUses() == 0 {
				deadIdx = append(deadIdx, i)
			}
		}
		if len(deadIdx) == 0 {
			continue
		}
		directOnly := true
		c.EachUse(func(u ir.Use) bool {
			if _, ok := u.Def.(*ir.Continuation); !ok || u.Index != 0 {
				directOnly = false
				return false
			}
			return true
		})
		if !directOnly {
			continue
		}

		// Normalize every call site's argument at a dead position to bottom
		// so the recursive-call rewiring inside Mangle fires.
		args := make([]ir.Def, c.NumParams())
		for _, i := range deadIdx {
			args[i] = w.Bottom(c.Param(i).Type())
		}
		// Every use is a distinct caller at index 0 (checked above) and Jump
		// creates no nodes, so re-jumping from the EachUse snapshot is
		// order-independent even though each Jump rewrites c's use list.
		c.EachUse(func(u ir.Use) bool {
			caller := u.Def.(*ir.Continuation)
			newArgs := append([]ir.Def(nil), caller.Args()...)
			for _, i := range deadIdx {
				newArgs[i] = args[i]
			}
			caller.Jump(c, newArgs...)
			return true
		})

		slim, err := Drop(ac.ScopeOf(c), args)
		if err != nil {
			continue // args is sized to c by construction; be safe anyway
		}
		slim.SetName(c.Name())
		c.EachUse(func(u ir.Use) bool {
			caller := u.Def.(*ir.Continuation)
			var kept []ir.Def
			for i, a := range caller.Args() {
				if args[i] == nil {
					kept = append(kept, a)
				}
			}
			caller.Jump(slim, kept...)
			return true
		})
		n += len(deadIdx)
	}
	return n
}

// traceMemChain walks the body's jump memory argument back to the
// parameter anchoring it and returns the effectful ops in execution order.
// It returns ok=false for anything but a plain single-use backbone of
// slots, allocs, loads and stores.
func traceMemChain(c *ir.Continuation) (ops []*ir.PrimOp, ok bool) {
	var memArg ir.Def
	for _, a := range c.Args() {
		if ir.IsMemType(a.Type()) {
			if memArg != nil {
				return nil, false // two mem args: not a linear body
			}
			memArg = a
		}
	}
	if memArg == nil {
		return nil, false
	}
	cur := memArg
	for {
		switch d := cur.(type) {
		case *ir.Param:
			// Reverse into execution order.
			for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
				ops[i], ops[j] = ops[j], ops[i]
			}
			return ops, true
		case *ir.PrimOp:
			switch d.OpKind() {
			case ir.OpStore:
				if d.NumUses() != 1 {
					return nil, false
				}
				ops = append(ops, d)
				cur = d.Op(0)
			case ir.OpExtract:
				if i, lit := ir.LitValue(d.Op(1)); !lit || i != 0 || d.NumUses() != 1 {
					return nil, false
				}
				src, isOp := d.Op(0).(*ir.PrimOp)
				if !isOp {
					return nil, false
				}
				switch src.OpKind() {
				case ir.OpSlot, ir.OpAlloc, ir.OpLoad:
					// The tuple result must only be observed through
					// constant-index projections, or the mem token leaks
					// out of the straight-line window.
					clean := true
					src.EachUse(func(u ir.Use) bool {
						e, eok := u.Def.(*ir.PrimOp)
						if eok && e.OpKind() == ir.OpExtract && u.Index == 0 {
							if _, lit := ir.LitValue(e.Op(1)); lit {
								return true
							}
						}
						clean = false
						return false
					})
					if !clean {
						return nil, false
					}
					ops = append(ops, src)
					cur = src.Op(0)
				default:
					return nil, false
				}
			default:
				return nil, false // not a chain op
			}
		default:
			return nil, false
		}
	}
}
