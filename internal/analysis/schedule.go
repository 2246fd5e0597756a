package analysis

import (
	"fmt"
	"slices"

	"thorin/internal/gidtab"
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
	// prims is the scope's ReachablePrimOps (ascending gid) and place[i]
	// the node prims[i] was placed in; BlockOf binary-searches prims.
	prims []*ir.PrimOp
	place []*Node
}

// NewSchedule computes a schedule for s under the given mode.
func NewSchedule(s *Scope, mode Mode) *Schedule {
	g := NewCFG(s)
	dom := NewDomTree(g)
	primops := s.ReachablePrimOps()
	sched := &Schedule{
		CFG:    g,
		Dom:    dom,
		Blocks: make([]*Block, len(g.Nodes)),
		prims:  primops,
		place:  make([]*Node, len(primops)),
	}
	blocks := make([]Block, len(g.Nodes))
	for _, n := range g.Nodes {
		blocks[n.Index].Node = n
		sched.Blocks[n.Index] = &blocks[n.Index]
	}

	// pos maps the gid of each scheduled primop to its index in primops;
	// a primop is in the set iff pos has it.
	pos := tableFor(s.Entry.World())
	defer gidtab.Put(pos)
	for i, p := range primops {
		pos.Set(p.GID(), int32(i))
	}
	indexOf := func(p *ir.PrimOp) int {
		if i, ok := pos.Get(p.GID()); ok {
			return int(i)
		}
		return -1
	}
	place := sched.place

	// -- Early placement: deepest block among the operands' blocks. --------
	// It fills place; the final placement below overwrites place[i] users
	// first, reading only i's own early block and its users' final blocks.
	early := place
	var earlyOf func(i int) *Node
	defBlock := func(d ir.Def) *Node {
		switch d := d.(type) {
		case *ir.Param:
			if n := g.NodeOf(d.Cont()); n != nil {
				return n
			}
			return g.Entry() // free param of an enclosing scope
		case *ir.PrimOp:
			if i := indexOf(d); i >= 0 {
				return earlyOf(i)
			}
			return g.Entry()
		default:
			return g.Entry() // literals, continuations
		}
	}
	earlyOf = func(i int) *Node {
		if n := early[i]; n != nil {
			return n
		}
		n := g.Entry()
		early[i] = n // break cycles defensively; the graph is acyclic
		for _, op := range primops[i].Ops() {
			b := defBlock(op)
			if dom.Depth(b) > dom.Depth(n) {
				n = b
			}
		}
		early[i] = n
		return n
	}
	for i := range primops {
		earlyOf(i)
	}

	if mode != ScheduleEarly {
		// Region-pure loads (read-only, non-escaped alias region) may be
		// scheduled as if they were pure: their mem operand only sequences
		// them into the effect chain, it carries no dependence a read-only
		// cell could observe. hoistBound holds each such load's mem-blind
		// early block (the ptr operand's block) at the load's index; the
		// load and its value projection float between that bound and their
		// uses, while the mem projection stays pinned at the original chain
		// position so downstream effectful ops do not move.
		var hoistBound []*Node // nil unless some load is region-pure
		var loopDepth []int    // read by ScheduleSmart only
		if mode == ScheduleSmart {
			loopDepth, _ = LoopDepths(g, dom)
			oracle := NewAliasOracle()
			for i, p := range primops {
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
					if hoistBound == nil {
						hoistBound = make([]*Node, len(primops))
					}
					hoistBound[i] = defBlock(ptr)
				}
			}
		}
		hoisted := func(i int) *Node {
			if hoistBound == nil {
				return nil
			}
			return hoistBound[i]
		}
		// valueProj returns the index of the hoistable load whose value
		// projection (extract index 1) p is — the one mem-tuple extract
		// that is allowed to float — or -1.
		valueProj := func(p *ir.PrimOp) int {
			if p.OpKind() != ir.OpExtract {
				return -1
			}
			src, ok := p.Op(0).(*ir.PrimOp)
			if !ok {
				return -1
			}
			j := indexOf(src)
			if j < 0 || hoisted(j) == nil {
				return -1
			}
			if i, ok := ir.LitValue(p.Op(1)); !ok || i != 1 {
				return -1
			}
			return j
		}

		// -- Final placement, users first. ----------------------------------
		// primops is in gid order, which puts operands before users, so
		// iterating in reverse sees every user's *final* position before the
		// operand is placed — the Click-style global code motion invariant:
		// a def's block must dominate the blocks its users actually end up
		// in, not their theoretical latest positions.
		for i := len(primops) - 1; i >= 0; i-- {
			p := primops[i]
			e := early[i]
			bound := e
			if src := valueProj(p); src >= 0 {
				bound = hoistBound[src]
			} else if hoisted(i) != nil {
				// The load follows its value projection (already placed:
				// users come first), or stays put when the value is unused.
				if ve := findValueProj(p, indexOf); ve >= 0 {
					place[i] = place[ve]
				}
				if loopDepth[place[i].Index] < loopDepth[e.Index] {
					sched.Hoisted++
				}
				continue
			} else if p.OpKind().HasMemEffect() || isMemTuple(p) {
				continue // effectful ops are pinned to their mem chain's block
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
					if j := indexOf(ud); j >= 0 {
						join(place[j])
					}
				}
				return true
			})
			if late == nil || !dom.Dominates(bound, late) {
				late = bound // users outside this scope: stay early
			}
			if mode == ScheduleLate {
				place[i] = late
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
			place[i] = best
		}
	}

	// -- Emit per-block topological order. ---------------------------------
	// One backing array holds every block's primops: count each block's
	// share, hand out capacity-capped windows, then fill them in gid order.
	count := make([]int, len(blocks)+1)
	for _, n := range place {
		count[n.Index+1]++
	}
	all := make([]*ir.PrimOp, 2*len(primops))
	for i := range blocks {
		count[i+1] += count[i]
		blocks[i].PrimOps = all[count[i]:count[i]:count[i+1]]
	}
	for i, p := range primops {
		b := &blocks[place[i].Index]
		b.PrimOps = append(b.PrimOps, p)
	}
	// The second half of all is scratch for sortTopological.
	state := make([]uint8, len(primops))
	for i := range blocks {
		sortTopological(&blocks[i], all[len(primops):], indexOf, place, state)
	}
	return sched
}

// findValueProj returns the index of the in-schedule value projection
// extract(load, 1) of a load, or -1.
func findValueProj(load *ir.PrimOp, indexOf func(*ir.PrimOp) int) int {
	ve := -1
	load.EachUse(func(u ir.Use) bool {
		e, ok := u.Def.(*ir.PrimOp)
		if !ok || e.OpKind() != ir.OpExtract || u.Index != 0 {
			return true
		}
		j := indexOf(e)
		if j < 0 {
			return true
		}
		if i, ok := ir.LitValue(e.Op(1)); ok && i == 1 {
			ve = j
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
func (s *Schedule) BlockOf(p *ir.PrimOp) *Node {
	i, ok := slices.BinarySearchFunc(s.prims, p.GID(), func(q *ir.PrimOp, gid int) int { return q.GID() - gid })
	if !ok {
		return nil
	}
	return s.place[i]
}

// sortTopological orders a block's primops, which arrive in gid order, so
// every operand placed in the same block precedes its users; ties keep gid
// order for determinism. tmp is scratch of at least the block's length,
// indexOf and place locate a primop's schedule index and block, and state
// (0 unvisited, 1 visiting, 2 done, by schedule index) starts zero for the
// block's primops.
func sortTopological(b *Block, tmp []*ir.PrimOp, indexOf func(*ir.PrimOp) int, place []*Node, state []uint8) {
	ops := tmp[:copy(tmp, b.PrimOps)]
	order := b.PrimOps[:0]
	var visit func(p *ir.PrimOp, i int)
	visit = func(p *ir.PrimOp, i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, op := range p.Ops() {
			if q, ok := op.(*ir.PrimOp); ok {
				if j := indexOf(q); j >= 0 && place[j] == b.Node {
					visit(q, j)
				}
			}
		}
		state[i] = 2
		order = append(order, p)
	}
	for _, p := range ops {
		visit(p, indexOf(p))
	}
	b.PrimOps = order
}
