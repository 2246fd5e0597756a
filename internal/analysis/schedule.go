package analysis

import (
	"fmt"
	"sort"

	"thorin/internal/ir"
)

// Mode selects the primop placement strategy.
type Mode int

// Scheduling modes.
const (
	// ScheduleEarly places each primop in the shallowest legal block (right
	// after its operands are available).
	ScheduleEarly Mode = iota
	// ScheduleLate places each primop in the deepest block dominating all of
	// its uses.
	ScheduleLate
	// ScheduleSmart picks, on the dominator-tree path between early and late
	// placement, the block with the smallest loop depth closest to the late
	// position — hoisting out of loops without lengthening live ranges
	// needlessly (the sea-of-nodes heuristic).
	ScheduleSmart
)

var modeNames = [...]string{ScheduleEarly: "early", ScheduleLate: "late", ScheduleSmart: "smart"}

// String returns the mode's canonical name: early, late or smart.
func (m Mode) String() string { return modeNames[m] }

// ParseMode resolves a schedule name; "" selects the smart default.
func ParseMode(name string) (Mode, error) {
	if name == "" {
		return ScheduleSmart, nil
	}
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("bad schedule %q (want early, late or smart)", name)
}

// Block is one scheduled basic block: a CFG node plus its primops in
// execution order.
type Block struct {
	Node    *Node
	PrimOps []*ir.PrimOp
}

// Schedule assigns every primop reachable from the scope's bodies to a block
// of the CFG. The IR itself has no instruction order — primops float in the
// dependency graph — so any backend needs a schedule first.
type Schedule struct {
	CFG *CFG
	Dom *DomTree
	// Blocks is indexed by Node.Index: in reverse postorder.
	Blocks []*Block
	// Hoisted counts region-pure loads that ScheduleSmart moved to a
	// strictly smaller loop depth than their effect-chain position.
	Hoisted int
	place   map[*ir.PrimOp]*Node
}

// NewSchedule computes a schedule for s under the given mode.
func NewSchedule(s *Scope, mode Mode) *Schedule {
	g := NewCFG(s)
	dom := NewDomTree(g)
	sched := &Schedule{
		CFG:    g,
		Dom:    dom,
		Blocks: make([]*Block, len(g.Nodes)),
		place:  make(map[*ir.PrimOp]*Node),
	}
	for _, n := range g.Nodes {
		sched.Blocks[n.Index] = &Block{Node: n}
	}

	primops := s.ReachablePrimOps()
	inSet := map[*ir.PrimOp]bool{}
	for _, p := range primops {
		inSet[p] = true
	}

	// -- Early placement: deepest block among the operands' blocks. --------
	early := make(map[*ir.PrimOp]*Node, len(primops))
	var earlyOf func(p *ir.PrimOp) *Node
	defBlock := func(d ir.Def) *Node {
		switch d := d.(type) {
		case *ir.Param:
			if n := g.NodeOf(d.Cont()); n != nil {
				return n
			}
			return g.Entry() // free param of an enclosing scope
		case *ir.PrimOp:
			if inSet[d] {
				return earlyOf(d)
			}
			return g.Entry()
		default:
			return g.Entry() // literals, continuations
		}
	}
	earlyOf = func(p *ir.PrimOp) *Node {
		if n, ok := early[p]; ok {
			return n
		}
		n := g.Entry()
		early[p] = n // break cycles defensively; the graph is acyclic
		for _, op := range p.Ops() {
			b := defBlock(op)
			if dom.Depth(b) > dom.Depth(n) {
				n = b
			}
		}
		early[p] = n
		return n
	}
	for _, p := range primops {
		earlyOf(p)
	}

	if mode == ScheduleEarly {
		for _, p := range primops {
			sched.place[p] = early[p]
		}
	} else {
		// Region-pure loads (read-only, non-escaped alias region) may be
		// scheduled as if they were pure: their mem operand only sequences
		// them into the effect chain, it carries no dependence a read-only
		// cell could observe. hoistBound maps each such load to its
		// mem-blind early block (the ptr operand's block); the load and its
		// value projection float between that bound and their uses, while
		// the mem projection stays pinned at the original chain position so
		// downstream effectful ops do not move.
		hoistBound := map[*ir.PrimOp]*Node{}
		var loopDepth []int // read by ScheduleSmart only
		if mode == ScheduleSmart {
			loopDepth, _ = LoopDepths(g, dom)
			oracle := NewAliasOracle()
			for _, p := range primops {
				if p.OpKind() != ir.OpLoad {
					continue
				}
				ptr := p.Op(1)
				// Lea-derived addresses are excluded: an out-of-bounds
				// index must trap exactly where the original program
				// traps, so array loads cannot run speculatively.
				if po, ok := ptr.(*ir.PrimOp); ok && po.OpKind() == ir.OpLea {
					continue
				}
				if oracle.ReadOnlyIn(s, ptr) {
					hoistBound[p] = defBlock(ptr)
				}
			}
		}
		// valueProj reports whether p is the value projection of a
		// hoistable load (extract index 1) — the one mem-tuple extract
		// that is allowed to float.
		valueProj := func(p *ir.PrimOp) (*ir.PrimOp, bool) {
			if p.OpKind() != ir.OpExtract {
				return nil, false
			}
			src, ok := p.Op(0).(*ir.PrimOp)
			if !ok || hoistBound[src] == nil {
				return nil, false
			}
			i, ok := ir.LitValue(p.Op(1))
			return src, ok && i == 1
		}

		// -- Final placement, users first. ----------------------------------
		// ReachablePrimOps returns operands before users (post-order), so
		// iterating in reverse sees every user's *final* position before the
		// operand is placed — the Click-style global code motion invariant:
		// a def's block must dominate the blocks its users actually end up
		// in, not their theoretical latest positions.
		for i := len(primops) - 1; i >= 0; i-- {
			p := primops[i]
			bound := early[p]
			if src, ok := valueProj(p); ok {
				bound = hoistBound[src]
			} else if hoistBound[p] != nil {
				// The load follows its value projection (already placed:
				// users come first), or stays put when the value is unused.
				sched.place[p] = early[p]
				if ve := findValueProj(p, inSet); ve != nil {
					sched.place[p] = sched.place[ve]
				}
				if loopDepth[sched.place[p].Index] < loopDepth[early[p].Index] {
					sched.Hoisted++
				}
				continue
			} else if p.OpKind().HasMemEffect() || isMemTuple(p) {
				// Effectful ops are pinned to their mem chain's block.
				sched.place[p] = early[p]
				continue
			}
			var late *Node
			join := func(b *Node) {
				if b == nil {
					return
				}
				if late == nil {
					late = b
				} else {
					late = dom.LCA(late, b)
				}
			}
			// Visit order is irrelevant: LCA over a set of blocks is the
			// lattice meet, so EachUse (insertion order, no allocation)
			// computes the same join as the sorted Uses.
			p.EachUse(func(u ir.Use) bool {
				switch ud := u.Def.(type) {
				case *ir.Continuation:
					join(g.NodeOf(ud))
				case *ir.PrimOp:
					if inSet[ud] {
						join(sched.place[ud])
					}
				}
				return true
			})
			if late == nil || !dom.Dominates(bound, late) {
				late = bound // users outside this scope: stay early
			}
			if mode == ScheduleLate {
				sched.place[p] = late
				continue
			}
			// Smart: walk up from late towards early, take the block with
			// minimal loop depth (ties broken towards late).
			best := late
			for n := late; ; n = dom.IDom(n) {
				if loopDepth[n.Index] < loopDepth[best.Index] {
					best = n
				}
				if n == bound {
					break
				}
			}
			sched.place[p] = best
		}
	}

	// -- Emit per-block topological order. ---------------------------------
	for _, p := range primops {
		b := sched.Blocks[sched.place[p].Index]
		b.PrimOps = append(b.PrimOps, p)
	}
	for _, b := range sched.Blocks {
		sortTopological(b)
	}
	return sched
}

// findValueProj returns the in-scope value projection extract(load, 1) of
// a load, or nil.
func findValueProj(load *ir.PrimOp, inSet map[*ir.PrimOp]bool) *ir.PrimOp {
	var ve *ir.PrimOp
	load.EachUse(func(u ir.Use) bool {
		e, ok := u.Def.(*ir.PrimOp)
		if !ok || e.OpKind() != ir.OpExtract || u.Index != 0 || !inSet[e] {
			return true
		}
		if i, ok := ir.LitValue(e.Op(1)); ok && i == 1 {
			ve = e
			return false
		}
		return true
	})
	return ve
}

// isMemTuple reports whether p extracts from an effectful op's result
// (which pins it next to the op itself).
func isMemTuple(p *ir.PrimOp) bool {
	if p.OpKind() != ir.OpExtract {
		return false
	}
	src, ok := p.Op(0).(*ir.PrimOp)
	return ok && src.OpKind().HasMemEffect()
}

// BlockOf returns the node p was placed in (nil if p was not scheduled).
func (s *Schedule) BlockOf(p *ir.PrimOp) *Node { return s.place[p] }

// sortTopological orders a block's primops so every operand placed in the
// same block precedes its users; ties are broken by gid for determinism.
func sortTopological(b *Block) {
	ops := b.PrimOps
	sort.Slice(ops, func(i, j int) bool { return ops[i].GID() < ops[j].GID() })
	inBlock := map[*ir.PrimOp]bool{}
	for _, p := range ops {
		inBlock[p] = true
	}
	var order []*ir.PrimOp
	state := map[*ir.PrimOp]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *ir.PrimOp)
	visit = func(p *ir.PrimOp) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, op := range p.Ops() {
			if q, ok := op.(*ir.PrimOp); ok && inBlock[q] {
				visit(q)
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range ops {
		visit(p)
	}
	b.PrimOps = order
}
