package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"thorin/internal/ir"
)

// randCFGWorld builds a random (reducible-or-not) intra-function CFG: 2 to
// 13 blocks, random branch/jump terminators, every block given a chance to
// be reachable. Half the terminators branch, so loops with several back
// edges and nested loops are common. Returns the entry.
func randCFGWorld(r *rand.Rand) (*ir.World, *ir.Continuation) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)
	entry := w.Continuation(w.FnType(mem, i64, retT), "entry")
	entry.SetExtern(true)

	n := r.Intn(12) + 2
	blocks := make([]*ir.Continuation, n)
	for i := range blocks {
		blocks[i] = w.Continuation(w.FnType(mem), "b")
	}
	// Terminators: jump forward/backward (1/6), branch (1/2), or return.
	x := entry.Param(1)
	cond := w.Cmp(ir.OpLt, x, w.LitI64(0))
	term := func(c *ir.Continuation, m ir.Def, idx int) {
		switch r.Intn(6) {
		case 0:
			c.Jump(blocks[r.Intn(n)], m)
		case 1, 2, 3:
			t1, t2 := blocks[r.Intn(n)], blocks[r.Intn(n)]
			if t1 == t2 {
				c.Jump(t1, m)
			} else {
				c.Branch(m, cond, t1, t2)
			}
		default:
			c.Jump(entry.Param(2), m, x)
		}
		_ = idx
	}
	entry.Branch(entry.Param(0), cond, blocks[0], blocks[r.Intn(n)])
	for i, b := range blocks {
		term(b, b.Param(0), i)
	}
	return w, entry
}

// reachable returns the nodes reachable from start along next without
// entering avoid; start itself is included unless it is avoid.
func reachable(start, avoid *Node, next func(*Node) []*Node) map[*Node]bool {
	seen := map[*Node]bool{}
	stack := []*Node{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == avoid || seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, next(n)...)
	}
	return seen
}

func succs(n *Node) []*Node { return n.Succs }
func preds(n *Node) []*Node { return n.Preds }

// refDominates is the brute-force definition of dominance: a dominates b
// iff a == b, a is the entry, or b cannot be reached from the entry once a
// is removed.
func refDominates(g *CFG, a, b *Node) bool {
	return a == b || a == g.Entry() || !reachable(g.Entry(), a, succs)[b]
}

// Property: dominator-tree invariants hold on random CFGs — Dominates
// agrees with the brute-force reachability definition on every pair,
// idom(n) strictly dominates n one level up, and LCA is commutative and
// itself dominates both arguments.
func TestDomTreeInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, entry := randCFGWorld(r)
		if err := ir.Verify(w); err != nil {
			t.Logf("invalid world: %v", err)
			return false
		}
		g := NewCFG(NewScope(entry))
		dom := NewDomTree(g)
		for _, a := range g.Nodes {
			for _, b := range g.Nodes {
				if dom.Dominates(a, b) != refDominates(g, a, b) {
					t.Logf("seed %d: Dominates(%d, %d) = %v", seed, a.Index, b.Index, dom.Dominates(a, b))
					return false
				}
			}
		}
		for _, n := range g.Nodes[1:] {
			id := dom.IDom(n)
			if id == nil || id == n || !dom.Dominates(id, n) || dom.Depth(n) != dom.Depth(id)+1 {
				return false
			}
		}
		for i := 0; i < 10; i++ {
			a := g.Nodes[r.Intn(len(g.Nodes))]
			b := g.Nodes[r.Intn(len(g.Nodes))]
			l1, l2 := dom.LCA(a, b), dom.LCA(b, a)
			if l1 != l2 || !dom.Dominates(l1, a) || !dom.Dominates(l1, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LoopDepths agrees with an independent count on random CFGs.
// The reference finds back edges u→h with the brute-force dominance, takes
// h's natural loop as h plus every node reaching a back-edge source
// without passing through h, and counts the loops containing each node;
// every header must dominate its loop.
func TestLoopTreeInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, entry := randCFGWorld(r)
		g := NewCFG(NewScope(entry))
		dom := NewDomTree(g)
		depth, header := LoopDepths(g, dom)
		count := map[*Node]int{}
		for _, h := range g.Nodes {
			loop := map[*Node]bool{}
			for _, u := range h.Preds {
				if refDominates(g, h, u) {
					loop[h] = true
					for n := range reachable(u, h, preds) {
						loop[n] = true
					}
				}
			}
			if header[h.Index] != (len(loop) > 0) {
				t.Logf("seed %d: header[%d] = %v", seed, h.Index, header[h.Index])
				return false
			}
			for n := range loop {
				count[n]++
				if !dom.Dominates(h, n) {
					return false
				}
			}
		}
		for _, n := range g.Nodes {
			if depth[n.Index] != count[n] {
				t.Logf("seed %d: depth[%d] = %d, want %d", seed, n.Index, depth[n.Index], count[n])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the schedule places every primop in a block that dominates all
// of its users' blocks, for all three modes, on random CFGs with arithmetic
// sprinkled in.
func TestScheduleDominanceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, entry := randCFGWorld(r)
		s := NewScope(entry)
		for _, mode := range []Mode{ScheduleEarly, ScheduleLate, ScheduleSmart} {
			sched := NewSchedule(s, mode)
			for _, b := range sched.Blocks {
				for _, p := range b.PrimOps {
					for _, u := range p.Uses() {
						var ub *Node
						switch ud := u.Def.(type) {
						case *ir.Continuation:
							ub = sched.CFG.NodeOf(ud)
						case *ir.PrimOp:
							ub = sched.BlockOf(ud)
						}
						if ub == nil {
							continue
						}
						if !sched.Dom.Dominates(b.Node, ub) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
