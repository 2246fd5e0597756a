package transform

import (
	"sort"

	"thorin/internal/analysis"
	"thorin/internal/ir"
)

// Mem2RegStats reports slot promotion results. PhiParams is the number of
// continuation parameters introduced at join points — the CPS analogue of
// φ-functions, and the metric compared against classical SSA construction
// in Table 3. The Skipped* counters break unpromoted slots down by reason:
// the address escapes (stored, passed on, or captured by a nested
// function), the slot's effect chain interleaves with control flow the
// analysis cannot separate, or the slot holds a non-primitive value the
// region-local promotion path does not handle.
type Mem2RegStats struct {
	PromotedSlots int
	PhiParams     int
	SkippedScopes int
	// Per-reason skip counters, in units of slots.
	SkippedEscaped          int
	SkippedInterleaved      int
	SkippedUnpromotableType int
}

func (s *Mem2RegStats) add(o Mem2RegStats) {
	s.PromotedSlots += o.PromotedSlots
	s.PhiParams += o.PhiParams
	s.SkippedScopes += o.SkippedScopes
	s.SkippedEscaped += o.SkippedEscaped
	s.SkippedInterleaved += o.SkippedInterleaved
	s.SkippedUnpromotableType += o.SkippedUnpromotableType
}

// Slot promotion ("mem2reg") promotes non-escaping stack slots to values
// flowing through continuation parameters in every promotable top-level
// scope. This is the paper's demonstration that SSA construction is an
// ordinary IR transformation in Thorin: the φ-placement algorithm of Braun
// et al. runs on the CPS graph, and φ-functions materialize as parameters of
// join-point continuations.
//
// The pass runs only through the pass manager (mem2regPass in passes.go) as
// a pm.ScopeRewriter: m2rTargets enumerates the roots, m2rAnalyze plans each
// one against the unmutated world (on parallel workers), m2rCommit applies
// the plans in root order and m2rFinish sweeps up. Top-level scopes are
// pairwise disjoint (a def of one scope that referenced another scope's
// parameter would make that parameter free, contradicting top-levelness), so
// planning every root before committing any is equivalent to an interleaved
// plan-commit loop. Scopes of scanned-but-unchanged roots stay cached for
// later passes; a promotion's mutations stamp the defs they touch, so the
// cache evicts exactly the entries that went stale.

// m2rTargets enumerates the candidate promotion roots in creation order.
func m2rTargets(w *ir.World) []*ir.Continuation {
	var out []*ir.Continuation
	for _, c := range w.Continuations() {
		if c.HasBody() && !c.IsIntrinsic() && c.IsReturning() {
			out = append(out, c)
		}
	}
	return out
}

// m2rPlan is the outcome of analyzing one root: a skip (scope whose
// control flow the analysis cannot cover), nothing to promote, or a filled
// promoter ready to commit. The per-reason slot counters are carried
// alongside either way.
type m2rPlan struct {
	skipped bool      // whole scope skipped; counted as SkippedScopes
	p       *promoter // nil when there is nothing to promote
	reasons Mem2RegStats
}

// m2rAnalyze plans the promotion of one root without mutating the world.
// It is safe to call concurrently for distinct roots.
func m2rAnalyze(w *ir.World, ac *analysis.Cache, c *ir.Continuation) *m2rPlan {
	s := ac.ScopeOf(c)
	if !s.TopLevel() {
		return &m2rPlan{} // nested function: promoted via its enclosing root
	}
	if blockFormScope(s) {
		plan := &m2rPlan{}
		plan.p = planPromotion(w, s, nil)
		plan.reasons.SkippedEscaped = countEscapedSlots(s)
		return plan
	}
	return planNonBlock(w, s)
}

// m2rCommit applies one plan. Stamp validation in the cache handles the
// mutations a promotion makes; no explicit invalidation is needed.
func m2rCommit(w *ir.World, ac *analysis.Cache, plan *m2rPlan) (Mem2RegStats, error) {
	st := plan.reasons
	if plan.skipped {
		st.SkippedScopes++
		return st, nil
	}
	if plan.p == nil {
		return st, nil
	}
	phis, err := plan.p.rewrite()
	if err != nil {
		return st, err
	}
	st.PhiParams = phis
	st.PromotedSlots = len(plan.p.slots)
	return st, nil
}

// countEscapedSlots counts the scope's slots whose address escapes (the
// slotPromotable walk fails): the per-reason accounting surfaced in the
// pass report.
func countEscapedSlots(s *analysis.Scope) int {
	n := 0
	for _, p := range s.ReachablePrimOps() {
		if p.OpKind() == ir.OpSlot && s.Contains(p) && !slotPromotable(p) {
			n++
		}
	}
	return n
}

// m2rFinish sweeps the husks the committed promotions left behind.
func m2rFinish(w *ir.World, ac *analysis.Cache) error {
	_, err := CleanupWith(w, ac)
	return err
}

// blockFormScope reports whether every non-entry continuation of the scope
// is basic-block-like, so the scope's CFG fully describes its control flow.
func blockFormScope(s *analysis.Scope) bool {
	for _, c := range s.Conts[1:] {
		if !c.IsBasicBlockLike() {
			return false
		}
	}
	return true
}

// planNonBlock plans region-local promotion for a scope that is not in
// block form: a nested returning function keeps the scope's CFG from
// covering every continuation, but slots whose loads and stores all live
// in covered blocks — and which the uncovered bodies provably never reach
// — promote exactly as in the block-form case. The uncovered bodies are
// left untouched by the rewrite, which is sound because every def they
// reference keeps its identity (checked below).
func planNonBlock(w *ir.World, s *analysis.Scope) *m2rPlan {
	plan := &m2rPlan{}
	plan.reasons.SkippedEscaped = countEscapedSlots(s)
	candidates := PromotableSlots(s)
	bail := func() *m2rPlan {
		plan.skipped = true
		plan.reasons.SkippedInterleaved += len(candidates)
		return plan
	}

	g := analysis.NewCFG(s)
	// Every covered block except the entry must be basic-block-like, or
	// the rewrite could not extend its parameter list with φs.
	for _, n := range g.Nodes {
		if n.Cont != s.Entry && !n.Cont.IsBasicBlockLike() {
			return bail()
		}
	}

	// outside is the transitive operand closure of every uncovered
	// continuation's body: everything a nested activation can reach. It is
	// operand-closed, so a slot is reachable from outside iff the slot
	// itself is a member.
	outside := map[ir.Def]bool{}
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		if outside[d] {
			return
		}
		outside[d] = true
		if p, ok := d.(*ir.PrimOp); ok {
			for _, op := range p.Ops() {
				visit(op)
			}
		}
	}
	for _, c := range s.Conts {
		if g.NodeOf(c) != nil || !c.HasBody() {
			continue
		}
		for _, op := range c.Ops() {
			visit(op)
		}
	}
	// An uncovered body referencing a covered block directly means the CFG
	// under-approximates the flow into that block — give up. Likewise for a
	// covered block's parameters: the rewrite replaces every non-entry
	// block (and its params) with a φ-extended copy, which would leave the
	// uncovered bodies holding params of dead continuations.
	for _, n := range g.Nodes {
		if n.Cont != s.Entry && outside[n.Cont] {
			return bail()
		}
	}
	for d := range outside {
		p, ok := d.(*ir.Param)
		if !ok || p.Cont() == s.Entry {
			continue
		}
		if g.NodeOf(p.Cont()) != nil {
			return bail()
		}
	}

	keep := map[*ir.PrimOp]bool{}
	for _, sl := range candidates {
		switch {
		case outside[sl]:
			plan.reasons.SkippedEscaped++ // captured by a nested activation
		case !isPrimSlot(sl):
			plan.reasons.SkippedUnpromotableType++
		case !slotAnchoredInBlocks(sl, g):
			plan.reasons.SkippedInterleaved++
		default:
			keep[sl] = true
		}
	}
	if len(keep) == 0 {
		return plan
	}

	// Identity guard: a slot or alloc the uncovered bodies share must come
	// out of the rewrite unchanged — rebuilding a salted site forks the
	// cell, and the uncovered bodies would keep writing the stale one.
	// A site is rebuilt iff a promoted def sits in its operand ancestry;
	// since every def the promotion changes has the promoted slot itself as
	// a transitive operand, seeding the walk with the kept slots suffices.
	for _, p := range s.ReachablePrimOps() {
		if p.OpKind() != ir.OpSlot && p.OpKind() != ir.OpAlloc {
			continue
		}
		if outside[p] && !keep[p] && ancestryIntersects(p, keep) {
			plan.reasons.SkippedInterleaved += len(keep)
			return plan
		}
	}

	plan.p = planPromotion(w, s, keep)
	return plan
}

// isPrimSlot reports whether the slot holds a primitive value — the only
// pointee the region-local promotion path handles.
func isPrimSlot(sl *ir.PrimOp) bool {
	_, ok := slotType(sl).(*ir.PrimType)
	return ok
}

// slotAnchoredInBlocks reports whether every load and store of the slot is
// anchored (through its mem operand chain) in a CFG-covered continuation,
// so the symbolic evaluation sees each access in its true block.
func slotAnchoredInBlocks(sl *ir.PrimOp, g *analysis.CFG) bool {
	ok := true
	sl.EachUse(func(u ir.Use) bool {
		ext := u.Def.(*ir.PrimOp) // slotPromotable guarantees the shape
		if idx, _ := ir.LitValue(ext.Op(1)); idx != 1 {
			return true
		}
		ext.EachUse(func(pu ir.Use) bool {
			op := pu.Def.(*ir.PrimOp)
			c := homeCont(op)
			if c == nil || g.NodeOf(c) == nil {
				ok = false
			}
			return ok
		})
		return ok
	})
	return ok
}

// homeCont walks an effectful op's mem operand chain back to the parameter
// anchoring it to its continuation, or nil when the chain is not a plain
// backbone of stores and effectful-op projections.
func homeCont(op *ir.PrimOp) *ir.Continuation {
	d := op.Op(0)
	for {
		switch m := d.(type) {
		case *ir.Param:
			return m.Cont()
		case *ir.PrimOp:
			switch m.OpKind() {
			case ir.OpStore:
				d = m.Op(0)
			case ir.OpExtract:
				src, ok := m.Op(0).(*ir.PrimOp)
				if !ok || !src.OpKind().HasMemEffect() {
					return nil
				}
				d = src.Op(0)
			default:
				return nil
			}
		default:
			return nil
		}
	}
}

// ancestryIntersects reports whether p's transitive operands include one of
// the seed primops.
func ancestryIntersects(p *ir.PrimOp, seeds map[*ir.PrimOp]bool) bool {
	seen := map[ir.Def]bool{}
	var walk func(d ir.Def) bool
	walk = func(d ir.Def) bool {
		if seen[d] {
			return false
		}
		seen[d] = true
		q, ok := d.(*ir.PrimOp)
		if !ok {
			return false
		}
		if seeds[q] {
			return true
		}
		for _, op := range q.Ops() {
			if walk(op) {
				return true
			}
		}
		return false
	}
	for _, op := range p.Ops() {
		if walk(op) {
			return true
		}
	}
	return false
}

// PromotableSlots returns the slot primops of s whose address never escapes:
// every use of the address is the pointer operand of a load or store.
func PromotableSlots(s *analysis.Scope) []*ir.PrimOp {
	var out []*ir.PrimOp
	for _, p := range s.ReachablePrimOps() {
		if p.OpKind() == ir.OpSlot && slotPromotable(p) {
			out = append(out, p)
		}
	}
	return out
}

func slotPromotable(slot *ir.PrimOp) bool {
	ok := true
	slot.EachUse(func(u ir.Use) bool {
		ext, isOp := u.Def.(*ir.PrimOp)
		if !isOp || ext.OpKind() != ir.OpExtract {
			ok = false
			return false
		}
		idx, isLit := ir.LitValue(ext.Op(1))
		if !isLit {
			ok = false
			return false
		}
		if idx == 0 {
			return true // mem projection
		}
		// Pointer projection: all uses must be load/store addresses.
		ext.EachUse(func(pu ir.Use) bool {
			op, isOp := pu.Def.(*ir.PrimOp)
			if !isOp {
				ok = false
				return false
			}
			switch op.OpKind() {
			case ir.OpLoad:
				if pu.Index != 1 {
					ok = false
				}
			case ir.OpStore:
				if pu.Index != 1 {
					ok = false // stored as a value or used as mem
				}
			default:
				ok = false
			}
			return ok
		})
		return ok
	})
	return ok
}

func slotType(slot *ir.PrimOp) ir.Type {
	return slot.Type().(*ir.TupleType).ElemTypes[1].(*ir.PtrType).Pointee
}

// m2rBottom is the comparable stand-in for an undefined (⊥) value of type t
// in the symbolic domain. The analysis phase must not allocate IR nodes (it
// may run on a parallel worker, and node creation there would make gid
// assignment scheduling-dependent), so ⊥ only materializes as a real Bottom
// literal at commit time, in valDef.
type m2rBottom struct{ t ir.Type }

// m2rValue lifts a def into the symbolic domain. Bottom literals already in
// the graph are canonicalized into the placeholder so they unify with the
// analysis' own undefined values under plain == comparison.
func m2rValue(d ir.Def) any {
	if l, ok := d.(*ir.Literal); ok && l.Bottom {
		return m2rBottom{l.Type()}
	}
	return d
}

// m2rPhi is a pending φ for (block, slot) during Braun-style value
// numbering; surviving φs become fresh parameters of their block.
type m2rPhi struct {
	block *analysis.Node
	slot  *ir.PrimOp
	si    int   // index of slot in promoter.slots
	args  []any // ir.Def or *m2rPhi, one per pred
	users []*m2rPhi
	repl  any // non-nil once replaced by a simpler value
}

// m2rEvent is a promoted load or store of slot index si.
type m2rEvent struct {
	op *ir.PrimOp
	si int
}

type promoter struct {
	w        *ir.World
	s        *analysis.Scope
	sched    *analysis.Schedule
	slots    []*ir.PrimOp        // promotable slots
	promoted map[*ir.PrimOp]bool // the same slots, as a set
	slotOf   map[*ir.PrimOp]int  // address projection -> index into slots
	// events holds every block's promoted loads and stores, grouped by
	// block (Node.Index order) and within a block by slot index, each
	// slot's accesses in schedule order. Block i owns
	// events[evStart[i]:evStart[i+1]].
	events  []m2rEvent
	evStart []int
	loadVal map[*ir.PrimOp]any // load primop -> value at its point
	// Dense per-(block, slot) state at Node.Index*len(slots)+slot index.
	endVal    []any // value after the block; nil until computed
	phis      []*m2rPhi
	inProg    []bool
	blockPhis [][]*m2rPhi // per block, every φ created for it
}

// planPromotion runs the read-only analysis of one scope: it finds the
// promotable slots and symbolically evaluates every load and block-end
// value. A non-nil keep set restricts promotion to those slots (the
// region-local path for non-block-form scopes). It returns nil when the
// scope has nothing to promote; otherwise the returned promoter is ready
// for rewrite().
func planPromotion(w *ir.World, s *analysis.Scope, keep map[*ir.PrimOp]bool) *promoter {
	slots := PromotableSlots(s)
	if keep != nil {
		kept := slots[:0]
		for _, sl := range slots {
			if keep[sl] {
				kept = append(kept, sl)
			}
		}
		slots = kept
	}
	if len(slots) == 0 {
		return nil
	}
	sched := analysis.NewSchedule(s, analysis.ScheduleEarly)
	nb := len(sched.Blocks)
	p := &promoter{
		w:         w,
		s:         s,
		sched:     sched,
		slots:     slots,
		promoted:  make(map[*ir.PrimOp]bool, len(slots)),
		slotOf:    make(map[*ir.PrimOp]int, len(slots)),
		evStart:   make([]int, nb+1),
		loadVal:   map[*ir.PrimOp]any{},
		endVal:    make([]any, nb*len(slots)),
		phis:      make([]*m2rPhi, nb*len(slots)),
		inProg:    make([]bool, nb*len(slots)),
		blockPhis: make([][]*m2rPhi, nb),
	}
	for si, sl := range slots {
		p.promoted[sl] = true
		sl.EachUse(func(u ir.Use) bool {
			ext := u.Def.(*ir.PrimOp)
			if idx, _ := ir.LitValue(ext.Op(1)); idx == 1 {
				p.slotOf[ext] = si // address projection -> its slot
			}
			return true
		})
	}
	// sched.Blocks is in CFG order, so block i is the node with Index i.
	for i, b := range sched.Blocks {
		p.evStart[i] = len(p.events)
		for _, op := range b.PrimOps {
			if k := op.OpKind(); k == ir.OpLoad || k == ir.OpStore {
				if si, ok := p.slotIndex(op.Op(1)); ok {
					p.events = append(p.events, m2rEvent{op, si})
				}
			}
		}
		ev := p.events[p.evStart[i]:]
		sort.SliceStable(ev, func(a, b int) bool { return ev[a].si < ev[b].si })
	}
	p.evStart[nb] = len(p.events)

	// Symbolic evaluation of all loads & block end values.
	for _, b := range sched.Blocks {
		for si := range slots {
			p.blockEnd(b.Node, si)
		}
	}
	return p
}

// slotIndex returns the index of the promoted slot a load/store pointer
// refers to.
func (p *promoter) slotIndex(ptr ir.Def) (int, bool) {
	e, ok := ptr.(*ir.PrimOp)
	if !ok {
		return 0, false
	}
	si, ok := p.slotOf[e]
	return si, ok
}

// slotEvents returns block n's promoted loads and stores of slot si, in
// schedule order.
func (p *promoter) slotEvents(n *analysis.Node, si int) []m2rEvent {
	ev := p.events[p.evStart[n.Index]:p.evStart[n.Index+1]]
	lo := sort.Search(len(ev), func(i int) bool { return ev[i].si >= si })
	hi := lo
	for hi < len(ev) && ev[hi].si == si {
		hi++
	}
	return ev[lo:hi]
}

// blockEnd computes the symbolic value of slot si after executing block n,
// filling loadVal for loads along the way.
func (p *promoter) blockEnd(n *analysis.Node, si int) any {
	k := n.Index*len(p.slots) + si
	if v := p.endVal[k]; v != nil {
		return v
	}
	if p.inProg[k] {
		// We are inside a loop and re-entered the block whose φ is being
		// filled: its start value is the pending φ; apply the block's own
		// stores to produce the end-of-block value.
		v := any(p.getPhi(n, si))
		for _, e := range p.slotEvents(n, si) {
			if e.op.OpKind() == ir.OpStore {
				v = m2rValue(e.op.Op(2))
			}
		}
		return v
	}
	p.inProg[k] = true
	v := p.blockStart(n, si)
	for _, e := range p.slotEvents(n, si) {
		if e.op.OpKind() == ir.OpStore {
			v = m2rValue(e.op.Op(2))
		} else {
			p.loadVal[e.op] = v
		}
	}
	p.inProg[k] = false
	p.endVal[k] = v
	return v
}

// blockStart computes the symbolic value of slot si on entry to block n.
func (p *promoter) blockStart(n *analysis.Node, si int) any {
	if n == p.sched.CFG.Entry() || len(n.Preds) == 0 {
		return m2rBottom{slotType(p.slots[si])}
	}
	if len(n.Preds) == 1 {
		return p.blockEnd(n.Preds[0], si)
	}
	return p.getPhi(n, si)
}

func (p *promoter) getPhi(n *analysis.Node, si int) *m2rPhi {
	k := n.Index*len(p.slots) + si
	if phi := p.phis[k]; phi != nil {
		return phi
	}
	phi := &m2rPhi{block: n, slot: p.slots[si], si: si, args: make([]any, 0, len(n.Preds))}
	// Record the φ before filling its operands so recursive lookups (back
	// to this block through loops) see it.
	p.phis[k] = phi
	p.blockPhis[n.Index] = append(p.blockPhis[n.Index], phi)
	for _, pred := range n.Preds {
		a := p.blockEnd(pred, si)
		phi.args = append(phi.args, a)
		if ap, ok := a.(*m2rPhi); ok {
			ap.users = append(ap.users, phi)
		}
	}
	p.tryRemoveTrivial(phi)
	return phi
}

// resolve follows replacement chains.
func resolve(v any) any {
	for {
		phi, ok := v.(*m2rPhi)
		if !ok || phi.repl == nil {
			return v
		}
		v = phi.repl
	}
}

// tryRemoveTrivial implements Braun et al.'s trivial-φ elimination: a φ
// whose operands are all the φ itself or a single other value is replaced
// by that value.
func (p *promoter) tryRemoveTrivial(phi *m2rPhi) any {
	var same any
	for _, a := range phi.args {
		a = resolve(a)
		if a == any(phi) {
			continue
		}
		if same != nil && a != same {
			return phi // non-trivial
		}
		same = a
	}
	if same == nil {
		same = m2rBottom{slotType(phi.slot)}
	}
	phi.repl = same
	for _, u := range phi.users {
		if u != phi && u.repl == nil {
			p.tryRemoveTrivial(u)
		}
	}
	return same
}

// livePhis returns the surviving φs of block n in deterministic order.
func (p *promoter) livePhis(n *analysis.Node) []*m2rPhi {
	var out []*m2rPhi
	for _, phi := range p.blockPhis[n.Index] {
		if phi.repl == nil {
			out = append(out, phi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].slot.GID() < out[j].slot.GID() })
	return out
}

// rewrite rebuilds the scope without the promoted slots. It returns the
// number of φ parameters introduced.
func (p *promoter) rewrite() (int, error) {
	w := p.w
	entry := p.s.Entry
	old2new := map[ir.Def]ir.Def{}
	phiParams := 0
	var rwErr error

	// New continuations for every non-entry block; φ-extended where needed.
	type blockInfo struct {
		node *analysis.Node
		old  *ir.Continuation
		new  *ir.Continuation
		phis []*m2rPhi
	}
	blocks := make([]*blockInfo, 0, len(p.sched.CFG.Nodes)) // by Node.Index

	for _, n := range p.sched.CFG.Nodes {
		c := n.Cont
		info := &blockInfo{node: n, old: c, phis: p.livePhis(n)}
		if c == entry {
			if len(info.phis) != 0 {
				panic("transform: mem2reg: entry cannot need φs")
			}
			info.new = c // the entry keeps its identity and type
		} else {
			types := append([]ir.Type(nil), c.FnType().Params...)
			for _, phi := range info.phis {
				types = append(types, slotType(phi.slot))
			}
			nc := w.Continuation(w.FnType(types...), c.Name())
			for i, op := range c.Params() {
				nc.Param(i).SetName(op.Name())
			}
			info.new = nc
			old2new[c] = nc
			for i, op := range c.Params() {
				old2new[op] = nc.Param(i)
			}
			phiParams += len(info.phis)
		}
		blocks = append(blocks, info)
	}

	// Def rewriter shared across blocks.
	var rw func(d ir.Def) ir.Def
	var valDef func(v any) ir.Def

	phiDef := func(phi *m2rPhi) ir.Def {
		bi := blocks[phi.block.Index]
		base := bi.old.NumParams()
		for i, q := range bi.phis {
			if q == phi {
				return bi.new.Param(base + i)
			}
		}
		panic("transform: mem2reg: φ lost")
	}
	valDef = func(v any) ir.Def {
		v = resolve(v)
		switch v := v.(type) {
		case *m2rPhi:
			return phiDef(v)
		case m2rBottom:
			return w.Bottom(v.t)
		}
		return rw(v.(ir.Def))
	}
	rw = func(d ir.Def) ir.Def {
		if n, ok := old2new[d]; ok {
			return n
		}
		op, ok := d.(*ir.PrimOp)
		if !ok || !p.s.Contains(d) {
			return d
		}
		var n ir.Def
		switch {
		case op.OpKind() == ir.OpSlot && p.promoted[op]:
			panic("transform: mem2reg: promoted slot still referenced")
		case op.OpKind() == ir.OpExtract && p.isSlotProj(op):
			// Projections of a promoted slot: the mem projection forwards
			// the slot's incoming mem; the ptr projection must be gone.
			slot := op.Op(0).(*ir.PrimOp)
			if idx, _ := ir.LitValue(op.Op(1)); idx == 0 {
				n = rw(slot.Op(0))
			} else {
				panic("transform: mem2reg: address of promoted slot escaped")
			}
		case op.OpKind() == ir.OpExtract && p.isPromotedLoadProj(op):
			load := op.Op(0).(*ir.PrimOp)
			if idx, _ := ir.LitValue(op.Op(1)); idx == 0 {
				n = rw(load.Op(0)) // mem flows through
			} else {
				n = valDef(p.loadVal[load])
			}
		case op.OpKind() == ir.OpStore && p.addresses(op.Op(1)):
			n = rw(op.Op(0)) // store vanishes; mem flows through
		default:
			ops := make([]ir.Def, op.NumOps())
			changed := false
			for i, o := range op.Ops() {
				ops[i] = rw(o)
				changed = changed || ops[i] != o
			}
			if !changed {
				// Identity-preserving: pure ops would hash-cons back to
				// themselves anyway, and salted sites (slots, allocs) MUST
				// keep their identity — continuations outside the rewritten
				// CFG may share the cell.
				n = d
				break
			}
			var err error
			n, err = Rebuild(w, op, ops)
			if err != nil {
				if rwErr == nil {
					rwErr = err
				}
				n = d // placeholder; the commit aborts on rwErr
			}
		}
		old2new[d] = n
		return n
	}

	// endArg yields the value of phi's slot at the end of block bi — the
	// argument bi must pass when jumping to phi's block.
	endArg := func(bi *blockInfo, phi *m2rPhi) ir.Def {
		return valDef(p.endVal[bi.node.Index*len(p.slots)+phi.si])
	}

	// Rewrite every block body; append φ arguments at jumps.
	for _, bi := range blocks {
		if !bi.old.HasBody() {
			continue
		}
		callee := bi.old.Callee()
		args := make([]ir.Def, bi.old.NumArgs())
		for j, a := range bi.old.Args() {
			args[j] = rw(a)
		}

		// trampoline wraps target t (which gained φ params) in a fresh
		// continuation of t's *old* type that forwards its params plus the
		// φ values as seen at the end of bi.
		trampoline := func(t *ir.Continuation, ti *blockInfo) *ir.Continuation {
			tramp := w.Continuation(t.FnType(), t.Name()+".phi")
			targs := make([]ir.Def, tramp.NumParams(), tramp.NumParams()+len(ti.phis))
			for pi := range tramp.Params() {
				targs[pi] = tramp.Param(pi)
			}
			for _, phi := range ti.phis {
				targs = append(targs, endArg(bi, phi))
			}
			tramp.Jump(ti.new, targs...)
			return tramp
		}

		if t, ok := callee.(*ir.Continuation); ok && t.Intrinsic() != ir.IntrinsicBranch {
			if tn := p.sched.CFG.NodeOf(t); tn != nil {
				// Direct jump to a block in scope: pass the φ values inline.
				for _, phi := range blocks[tn.Index].phis {
					args = append(args, endArg(bi, phi))
				}
				bi.new.Jump(blocks[tn.Index].new, args...)
				continue
			}
		}

		// Branch or call leaving the scope: continuation-typed arguments
		// that gained φ params keep their old type via trampolines.
		for j, a := range bi.old.Args() {
			t, ok := a.(*ir.Continuation)
			if !ok {
				continue
			}
			tn := p.sched.CFG.NodeOf(t)
			if tn == nil || len(blocks[tn.Index].phis) == 0 {
				continue
			}
			args[j] = trampoline(t, blocks[tn.Index])
		}
		bi.new.Jump(rw(callee), args...)
	}
	return phiParams, rwErr
}

func (p *promoter) isSlotProj(op *ir.PrimOp) bool {
	src, ok := op.Op(0).(*ir.PrimOp)
	return ok && src.OpKind() == ir.OpSlot && p.promoted[src]
}

func (p *promoter) isPromotedLoadProj(op *ir.PrimOp) bool {
	src, ok := op.Op(0).(*ir.PrimOp)
	return ok && src.OpKind() == ir.OpLoad && p.addresses(src.Op(1))
}

// addresses reports whether ptr is the address of a promoted slot.
func (p *promoter) addresses(ptr ir.Def) bool {
	_, ok := p.slotIndex(ptr)
	return ok
}
