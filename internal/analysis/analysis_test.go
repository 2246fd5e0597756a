package analysis

import (
	"strings"
	"testing"

	"thorin/internal/ir"
)

// buildDiamond constructs:
//
//	f(mem, x, ret): branch(mem, x<0, then, else)
//	then(mem): join(mem, 1)
//	else(mem): join(mem, 2)
//	join(mem, v): ret(mem, v)
func buildDiamond(w *ir.World) (f, then, els, join *ir.Continuation) {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	f = w.Continuation(w.FnType(mem, i64, ret), "f")
	then = w.Continuation(w.FnType(mem), "then")
	els = w.Continuation(w.FnType(mem), "else")
	join = w.Continuation(w.FnType(mem, i64), "join")

	cond := w.Cmp(ir.OpLt, f.Param(1), w.LitI64(0))
	f.Branch(f.Param(0), cond, then, els)
	then.Jump(join, then.Param(0), w.LitI64(1))
	els.Jump(join, els.Param(0), w.LitI64(2))
	join.Jump(f.Param(2), join.Param(0), join.Param(1))
	return
}

// buildLoop constructs a counting loop:
//
//	f(mem, n, ret): head(mem, 0)
//	head(mem, i): branch(mem, i<n, body, done)
//	body(mem): head(mem, i+1)
//	done(mem): ret(mem, i)
func buildLoop(w *ir.World) (f, head, body, done *ir.Continuation) {
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	f = w.Continuation(w.FnType(mem, i64, ret), "f")
	head = w.Continuation(w.FnType(mem, i64), "head")
	body = w.Continuation(w.FnType(mem), "body")
	done = w.Continuation(w.FnType(mem), "done")

	f.Jump(head, f.Param(0), w.LitI64(0))
	i := head.Param(1)
	head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, f.Param(1)), body, done)
	body.Jump(head, body.Param(0), w.Arith(ir.OpAdd, i, w.LitI64(1)))
	done.Jump(f.Param(2), done.Param(0), i)
	return
}

func TestScopeDiamond(t *testing.T) {
	w := ir.NewWorld()
	f, then, els, join := buildDiamond(w)
	s := NewScope(f)
	for _, c := range []*ir.Continuation{f, then, els, join} {
		if !s.Contains(c) {
			t.Errorf("scope must contain %s", c.Name())
		}
	}
	if len(s.Conts) != 4 {
		t.Errorf("scope has %d conts, want 4", len(s.Conts))
	}
	if s.Conts[0] != f {
		t.Error("entry must be first")
	}
	if !s.TopLevel() {
		t.Error("f must be top-level (no free params)")
	}
}

func TestScopeExcludesOtherFunctions(t *testing.T) {
	w := ir.NewWorld()
	f, _, _, _ := buildDiamond(w)
	g, _, _, _ := buildLoop(w)
	sf := NewScope(f)
	if sf.Contains(g) {
		t.Error("f's scope must not contain unrelated g")
	}
	sg := NewScope(g)
	if sg.Contains(f) {
		t.Error("g's scope must not contain unrelated f")
	}
}

func TestScopeNestedFreeParams(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	// f(mem, x, ret): inner(mem)
	// inner(mem): ret(mem, x+1)    — inner is nested in f, using f's x and ret.
	f := w.Continuation(w.FnType(mem, i64, ret), "f")
	inner := w.Continuation(w.FnType(mem), "inner")
	f.Jump(inner, f.Param(0))
	inner.Jump(f.Param(2), inner.Param(0), w.Arith(ir.OpAdd, f.Param(1), w.LitI64(1)))

	sf := NewScope(f)
	if !sf.Contains(inner) {
		t.Fatal("inner must be in f's scope")
	}
	si := NewScope(inner)
	if si.Contains(f) {
		t.Error("f must not be in inner's scope")
	}
	fp := si.FreeParams()
	if len(fp) != 2 { // x and ret
		t.Fatalf("inner has %d free params, want 2 (x, ret)", len(fp))
	}
	if si.TopLevel() {
		t.Error("inner must not be top-level")
	}
}

func TestCFGDiamond(t *testing.T) {
	w := ir.NewWorld()
	f, then, els, join := buildDiamond(w)
	g := NewCFG(NewScope(f))
	if len(g.Nodes) != 4 {
		t.Fatalf("CFG has %d nodes, want 4\n%s", len(g.Nodes), g)
	}
	nf, nt, ne, nj := g.NodeOf(f), g.NodeOf(then), g.NodeOf(els), g.NodeOf(join)
	if len(nf.Succs) != 2 {
		t.Errorf("entry has %d succs, want 2", len(nf.Succs))
	}
	if len(nj.Preds) != 2 {
		t.Errorf("join has %d preds, want 2", len(nj.Preds))
	}
	if len(nt.Succs) != 1 || nt.Succs[0] != nj || len(ne.Succs) != 1 || ne.Succs[0] != nj {
		t.Error("then/else must flow to join")
	}
	if len(nj.Succs) != 1 || nj.Succs[0] != g.Exit {
		t.Error("join must flow to the virtual exit")
	}
	if nf.Index != 0 {
		t.Error("entry must have RPO index 0")
	}
	if nj.Index <= nt.Index || nj.Index <= ne.Index {
		t.Error("RPO must place join after both branches")
	}
}

func TestCFGCallReturnEdge(t *testing.T) {
	// f(mem, x, ret): g(mem, x, k) where g is a *top-level* function and k
	// is f's local return block — the CFG must have edge f→k.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	g := w.Continuation(w.FnType(mem, i64, ret), "g")
	g.Jump(g.Param(2), g.Param(0), g.Param(1)) // identity

	f := w.Continuation(w.FnType(mem, i64, ret), "f")
	k := w.Continuation(w.FnType(mem, i64), "k")
	f.Jump(g, f.Param(0), f.Param(1), k)
	k.Jump(f.Param(2), k.Param(0), k.Param(1))

	cfg := NewCFG(NewScope(f))
	nf, nk := cfg.NodeOf(f), cfg.NodeOf(k)
	if nk == nil {
		t.Fatal("return continuation missing from CFG")
	}
	if len(nf.Succs) != 1 || nf.Succs[0] != nk {
		t.Fatalf("call must create edge to return continuation, got %v", nf.Succs)
	}
	if cfg.NodeOf(g) != nil {
		t.Error("callee g must not be a CFG node of f")
	}
}

func TestDomTreeDiamond(t *testing.T) {
	w := ir.NewWorld()
	f, then, els, join := buildDiamond(w)
	g := NewCFG(NewScope(f))
	dom := NewDomTree(g)
	nf, nt, ne, nj := g.NodeOf(f), g.NodeOf(then), g.NodeOf(els), g.NodeOf(join)
	if dom.IDom(nt) != nf || dom.IDom(ne) != nf {
		t.Error("branches must be dominated by entry")
	}
	if dom.IDom(nj) != nf {
		t.Errorf("join's idom must be entry, got %v", dom.IDom(nj))
	}
	if !dom.Dominates(nf, nj) || dom.Dominates(nt, nj) {
		t.Error("dominance relation wrong")
	}
	if dom.LCA(nt, ne) != nf {
		t.Error("LCA(then, else) must be entry")
	}
}

func TestLoopTree(t *testing.T) {
	w := ir.NewWorld()
	f, head, body, done := buildLoop(w)
	g := NewCFG(NewScope(f))
	dom := NewDomTree(g)
	lt := NewLoopTree(g, dom)
	if len(lt.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(lt.Loops))
	}
	l := lt.Loops[0]
	if l.Header != g.NodeOf(head) {
		t.Error("loop header must be head")
	}
	if !l.Body[g.NodeOf(body)] {
		t.Error("loop body must contain body")
	}
	if lt.Depth(g.NodeOf(head)) != 1 || lt.Depth(g.NodeOf(body)) != 1 {
		t.Error("head/body must have loop depth 1")
	}
	if lt.Depth(g.NodeOf(f)) != 0 || lt.Depth(g.NodeOf(done)) != 0 {
		t.Error("entry/done must have loop depth 0")
	}
}

func TestNestedLoops(t *testing.T) {
	// f: outer(mem,0); outer(mem,i): branch(i<n, inner_init, exit)
	// inner_init(mem): inner(mem, 0)
	// inner(mem,j): branch(j<n, ibody, onext)
	// ibody(mem): inner(mem, j+1)
	// onext(mem): outer(mem, i+1)
	// exit(mem): ret(mem, 0)
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, ret), "f")
	outer := w.Continuation(w.FnType(mem, i64), "outer")
	innerInit := w.Continuation(w.FnType(mem), "inner_init")
	inner := w.Continuation(w.FnType(mem, i64), "inner")
	ibody := w.Continuation(w.FnType(mem), "ibody")
	onext := w.Continuation(w.FnType(mem), "onext")
	exit := w.Continuation(w.FnType(mem), "exit")

	n := f.Param(1)
	f.Jump(outer, f.Param(0), w.LitI64(0))
	i := outer.Param(1)
	outer.Branch(outer.Param(0), w.Cmp(ir.OpLt, i, n), innerInit, exit)
	innerInit.Jump(inner, innerInit.Param(0), w.LitI64(0))
	j := inner.Param(1)
	inner.Branch(inner.Param(0), w.Cmp(ir.OpLt, j, n), ibody, onext)
	ibody.Jump(inner, ibody.Param(0), w.Arith(ir.OpAdd, j, w.LitI64(1)))
	onext.Jump(outer, onext.Param(0), w.Arith(ir.OpAdd, i, w.LitI64(1)))
	exit.Jump(f.Param(2), exit.Param(0), w.LitI64(0))

	g := NewCFG(NewScope(f))
	dom := NewDomTree(g)
	lt := NewLoopTree(g, dom)
	if len(lt.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(lt.Loops))
	}
	if lt.Depth(g.NodeOf(ibody)) != 2 {
		t.Errorf("inner body depth = %d, want 2", lt.Depth(g.NodeOf(ibody)))
	}
	if lt.Depth(g.NodeOf(outer)) != 1 {
		t.Errorf("outer header depth = %d, want 1", lt.Depth(g.NodeOf(outer)))
	}
	innerLoop := lt.InnermostLoop(g.NodeOf(ibody))
	if innerLoop == nil || innerLoop.Parent == nil || innerLoop.Parent.Header != g.NodeOf(outer) {
		t.Error("inner loop must be nested in outer loop")
	}
}

// scheduleInvariant checks that each primop's block dominates the blocks of
// all its intra-scope users.
func scheduleInvariant(t *testing.T, s *Scope, sched *Schedule) {
	t.Helper()
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
					t.Errorf("primop %s in %s does not dominate user in %s",
						p.OpKind(), b.Node, ub)
				}
			}
		}
	}
}

func TestScheduleModes(t *testing.T) {
	for _, mode := range []Mode{ScheduleEarly, ScheduleLate, ScheduleSmart} {
		w := ir.NewWorld()
		f, head, body, _ := buildLoop(w)
		s := NewScope(f)
		sched := NewSchedule(s, mode)
		scheduleInvariant(t, s, sched)

		// The i+1 primop must be placed somewhere legal.
		inc := findPrimOp(s, ir.OpAdd)
		if inc == nil {
			t.Fatal("add not found")
		}
		n := sched.BlockOf(inc)
		if n == nil {
			t.Fatal("add not scheduled")
		}
		switch mode {
		case ScheduleEarly:
			if n != sched.CFG.NodeOf(head) {
				t.Errorf("early: add in %s, want head", n)
			}
		case ScheduleLate, ScheduleSmart:
			if n != sched.CFG.NodeOf(body) {
				t.Errorf("%v: add in %s, want body", mode, n)
			}
		}
	}
}

func TestScheduleHoistsLoopInvariant(t *testing.T) {
	// f(mem, n, a, ret): head(mem, 0, 0)
	// head(mem, i, acc): branch(i<n, body, done)
	// body(mem): head(mem, i+1, acc + a*a)   — a*a is loop-invariant.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, i64, ret), "f")
	head := w.Continuation(w.FnType(mem, i64, i64), "head")
	body := w.Continuation(w.FnType(mem), "body")
	done := w.Continuation(w.FnType(mem), "done")

	n, a := f.Param(1), f.Param(2)
	f.Jump(head, f.Param(0), w.LitI64(0), w.LitI64(0))
	i, acc := head.Param(1), head.Param(2)
	head.Branch(head.Param(0), w.Cmp(ir.OpLt, i, n), body, done)
	sq := w.Arith(ir.OpMul, a, a)
	body.Jump(head, body.Param(0),
		w.Arith(ir.OpAdd, i, w.LitI64(1)),
		w.Arith(ir.OpAdd, acc, sq))
	done.Jump(f.Param(3), done.Param(0), acc)

	s := NewScope(f)
	sched := NewSchedule(s, ScheduleSmart)
	scheduleInvariant(t, s, sched)
	sqp := sq.(*ir.PrimOp)
	if got := sched.BlockOf(sqp); got != sched.CFG.NodeOf(f) {
		t.Errorf("smart schedule must hoist a*a to entry, got %v", got)
	}
	// Late scheduling keeps it in the loop.
	lateSched := NewSchedule(s, ScheduleLate)
	if got := lateSched.BlockOf(sqp); got != lateSched.CFG.NodeOf(body) {
		t.Errorf("late schedule must keep a*a in body, got %v", got)
	}
}

func TestScheduleMemOpsPinned(t *testing.T) {
	// f(mem, p, ret): load in entry, value used only in a later block; the
	// load must stay with its mem chain in the entry block.
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ptr := w.PtrType(i64)
	ret := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, ptr, ret), "f")
	k := w.Continuation(w.FnType(mem), "k")

	ld := w.Load(f.Param(0), f.Param(1))
	m1 := w.ExtractAt(ld, 0)
	v := w.ExtractAt(ld, 1)
	f.Jump(k, m1)
	k.Jump(f.Param(2), k.Param(0), v)

	s := NewScope(f)
	sched := NewSchedule(s, ScheduleSmart)
	scheduleInvariant(t, s, sched)
	ldp := ld.(*ir.PrimOp)
	if got := sched.BlockOf(ldp); got != sched.CFG.NodeOf(f) {
		t.Errorf("load must be pinned to entry, got %v", got)
	}
}

func TestBlockTopologicalOrder(t *testing.T) {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	ret := w.FnType(mem, i64)
	f := w.Continuation(w.FnType(mem, i64, ret), "f")
	x := f.Param(1)
	a := w.Arith(ir.OpMul, x, x)
	b := w.Arith(ir.OpAdd, a, x)
	c := w.Arith(ir.OpMul, b, a)
	f.Jump(f.Param(2), f.Param(0), c)

	sched := NewSchedule(NewScope(f), ScheduleSmart)
	blk := sched.Block(sched.CFG.NodeOf(f))
	pos := map[ir.Def]int{}
	for i, p := range blk.PrimOps {
		pos[p] = i
	}
	for _, p := range blk.PrimOps {
		for _, op := range p.Ops() {
			if q, ok := op.(*ir.PrimOp); ok {
				if qi, there := pos[q]; there && qi >= pos[p] {
					t.Errorf("operand %s scheduled after user %s", q.OpKind(), p.OpKind())
				}
			}
		}
	}
	if len(blk.PrimOps) != 3 {
		t.Errorf("entry block has %d primops, want 3", len(blk.PrimOps))
	}
}

func findPrimOp(s *Scope, kind ir.OpKind) *ir.PrimOp {
	for _, p := range s.ReachablePrimOps() {
		if p.OpKind() == kind {
			return p
		}
	}
	return nil
}

func TestDotExport(t *testing.T) {
	w := ir.NewWorld()
	f, _, _, _ := buildDiamond(w)
	s := NewScope(f)
	var sb strings.Builder
	WriteScopeDot(&sb, s)
	for _, want := range []string{"digraph", "shape=box", "->", "lt"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scope dot missing %q", want)
		}
	}
	sb.Reset()
	WriteCFGDot(&sb, s)
	for _, want := range []string{"digraph", "exit", "->"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("cfg dot missing %q", want)
		}
	}
	// Loop depth annotation appears for loops.
	w2 := ir.NewWorld()
	g, _, _, _ := buildLoop(w2)
	sb.Reset()
	WriteCFGDot(&sb, NewScope(g))
	if !strings.Contains(sb.String(), "loop depth 1") {
		t.Error("cfg dot missing loop depth annotation")
	}
}
