// Package analysis provides the demand-driven analyses of the Thorin IR:
// scope identification, control-flow graph extraction, dominance, loop
// depth and primop scheduling. Per-node CFG facts are slices indexed by
// Node.Index, the reverse-postorder number.
//
// Because the IR is a graph without syntactic nesting, the scope of a
// continuation is not stored anywhere — it is *computed* as the set of nodes
// that transitively depend on the continuation's parameters. This is the
// paper's central representation decision: nesting is implicit, and
// transformations such as lambda mangling never need to maintain it.
package analysis

import (
	"slices"
	"sync"
	"sync/atomic"

	"thorin/internal/gidtab"
	"thorin/internal/ir"
)

// scopeBuilds counts every NewScope execution in the process. The incremental
// rewrite benchmarks use it to demonstrate that generation-validated caching
// actually avoids scope reconstruction (the dominant analysis cost).
var scopeBuilds atomic.Int64

// ScopeBuildCount returns the number of NewScope executions so far,
// process-wide. Meaningful as a delta around a workload.
func ScopeBuildCount() int64 { return scopeBuilds.Load() }

// Scope is the set of defs that (transitively) use the parameters of an
// entry continuation, plus the entry itself. Continuations inside the scope
// are the entry's nested functions and basic blocks; defs referenced by
// scope members but outside the set are the scope's free defs.
type Scope struct {
	Entry *ir.Continuation
	// gids holds the gid of every def belonging to the scope (incl. entry,
	// params) in ascending order. Contains binary-searches it, so a scope
	// costs memory in proportion to its size, never to the world's.
	gids []int32
	// Conts lists the scope's continuations in ascending gid order with the
	// entry first.
	Conts []*ir.Continuation

	// Free-variable sets and the reachable primops are derived,
	// immutable-once-computed properties of the scope; they are memoized
	// because TopLevel() — asked for every scope by every scope-level pass —
	// and the several analyses of one mem2reg plan would otherwise re-derive
	// them on each call. sync.Once keeps the memoization safe for the
	// parallel analysis workers that share cached scopes.
	freeDefsOnce   sync.Once
	freeDefs       []ir.Def
	freeParamsOnce sync.Once
	freeParams     []*ir.Param
	primOpsOnce    sync.Once
	primOps        []*ir.PrimOp
}

// tableFor takes a scratch gid table sized to w's gid range from the pool.
func tableFor(w *ir.World) *gidtab.Table { return gidtab.Get(w.Generation() + 1) }

// worklists recycles the closure worklist of NewScope. Lists go back
// cleared, so a pooled list keeps no def alive.
var worklists = sync.Pool{New: func() any { return new([]ir.Def) }}

// NewScope computes the scope of entry by a transitive closure over use
// edges starting at entry's parameters (the algorithm of the paper's §4).
func NewScope(entry *ir.Continuation) *Scope {
	scopeBuilds.Add(1)
	s := &Scope{Entry: entry, Conts: []*ir.Continuation{entry}}
	member := tableFor(entry.World())
	defer gidtab.Put(member)
	lp := worklists.Get().(*[]ir.Def)
	defs := (*lp)[:0]

	push := func(d ir.Def) {
		if member.Add(d.GID()) {
			defs = append(defs, d)
			if c, ok := d.(*ir.Continuation); ok && c != entry {
				s.Conts = append(s.Conts, c)
			}
		}
	}
	pushUser := func(u ir.Use) bool {
		push(u.Def)
		return true
	}
	push(entry)
	for _, p := range entry.Params() {
		push(p)
	}
	// defs is the member list and the worklist at once: members after
	// defs[i] are still to be expanded. Visit order does not matter because
	// membership is a set and gids and Conts are sorted after the closure.
	for i := 0; i < len(defs); i++ {
		d := defs[i]
		if d != entry {
			// Follow use edges: everything that uses a scope member depends
			// on the entry's params and therefore belongs to the scope.
			d.EachUse(pushUser)
		}
		if c, ok := d.(*ir.Continuation); ok {
			for _, p := range c.Params() {
				push(p)
			}
		}
	}

	s.gids = make([]int32, len(defs))
	for i, d := range defs {
		s.gids[i] = int32(d.GID())
	}
	slices.Sort(s.gids)
	clear(defs)
	*lp = defs[:0]
	worklists.Put(lp)
	rest := s.Conts[1:]
	slices.SortFunc(rest, func(a, b *ir.Continuation) int { return a.GID() - b.GID() })
	return s
}

// Contains reports whether d belongs to the scope.
func (s *Scope) Contains(d ir.Def) bool {
	_, ok := slices.BinarySearch(s.gids, int32(d.GID()))
	return ok
}

// contIndex returns the position of c in s.Conts, or -1.
func (s *Scope) contIndex(c *ir.Continuation) int {
	if c == s.Entry {
		return 0
	}
	rest := s.Conts[1:]
	i, ok := slices.BinarySearchFunc(rest, c.GID(), func(e *ir.Continuation, gid int) int { return e.GID() - gid })
	if !ok {
		return -1
	}
	return i + 1
}

// Scope walk tables: a gid's value in the scratch table marks it as a scope
// member and as visited by the current walk.
const (
	inScope int32 = 1 << iota
	visited
)

// walkTable returns a scratch table in which every scope member is marked
// inScope. Return it with gidtab.Put.
func (s *Scope) walkTable() *gidtab.Table {
	t := tableFor(s.Entry.World())
	for _, g := range s.gids {
		t.Set(int(g), inScope)
	}
	return t
}

// FreeDefs returns the non-continuation, non-literal defs referenced by
// scope members but defined outside the scope, in ascending gid order.
// These are the values lambda lifting must turn into parameters. The result
// is memoized: it is computed at most once per Scope, and callers must not
// mutate the returned slice.
func (s *Scope) FreeDefs() []ir.Def {
	s.freeDefsOnce.Do(func() { s.freeDefs = s.computeFreeDefs() })
	return s.freeDefs
}

func (s *Scope) computeFreeDefs() []ir.Def {
	t := s.walkTable()
	defer gidtab.Put(t)
	var free []ir.Def
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		mark, _ := t.Get(d.GID())
		if mark&visited != 0 {
			return
		}
		t.Set(d.GID(), mark|visited)
		if mark&inScope != 0 {
			// Scope members: recurse into their operands.
			for _, op := range d.Ops() {
				visit(op)
			}
			return
		}
		switch d := d.(type) {
		case *ir.Literal:
			return // constants are always free and always available
		case *ir.Continuation:
			return // continuations are globally addressable
		case *ir.PrimOp:
			// A primop outside the scope is free only if it does not itself
			// reach into the scope; since scope membership is a use-closure,
			// it cannot — record it. But prefer reporting the minimal
			// frontier: if all its operands are free we still report the
			// primop itself (it can be recomputed or passed).
			free = append(free, d)
			return
		default:
			free = append(free, d) // params of enclosing scopes
		}
	}
	for _, c := range s.Conts {
		for _, op := range c.Ops() {
			visit(op)
		}
	}
	slices.SortFunc(free, func(a, b ir.Def) int { return a.GID() - b.GID() })
	return free
}

// FreeParams returns only the free defs that are parameters of enclosing
// continuations — the values that make the scope non-top-level. The result
// is memoized: it is computed at most once per Scope, and callers must not
// mutate the returned slice.
func (s *Scope) FreeParams() []*ir.Param {
	s.freeParamsOnce.Do(func() { s.freeParams = s.computeFreeParams() })
	return s.freeParams
}

func (s *Scope) computeFreeParams() []*ir.Param {
	t := s.walkTable()
	defer gidtab.Put(t)
	var out []*ir.Param
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		mark, _ := t.Get(d.GID())
		if mark&visited != 0 {
			return
		}
		t.Set(d.GID(), mark|visited)
		inScope := mark&inScope != 0
		if p, ok := d.(*ir.Param); ok && !inScope {
			out = append(out, p)
			return
		}
		if !inScope {
			if _, ok := d.(*ir.PrimOp); !ok {
				return
			}
			// Free primops can still transitively reference free params.
		}
		for _, op := range d.Ops() {
			visit(op)
		}
	}
	for _, c := range s.Conts {
		for _, op := range c.Ops() {
			visit(op)
		}
	}
	slices.SortFunc(out, func(a, b *ir.Param) int { return a.GID() - b.GID() })
	return out
}

// TopLevel reports whether the scope has no free parameters, i.e. the entry
// can be treated as a global function. The underlying free-parameter set is
// memoized, so repeated TopLevel queries (one per scope per scope-level
// pass) cost a single computation.
func (s *Scope) TopLevel() bool { return len(s.FreeParams()) == 0 }

// ReachablePrimOps returns every primop reachable from the bodies of the
// scope's continuations (the defs a backend must materialize), in gid
// order, which puts every operand before its users. The result is
// memoized like FreeDefs: callers must not mutate the returned slice, and
// must ask before they mutate the world, since a memoized walk does not
// see later rewrites.
func (s *Scope) ReachablePrimOps() []*ir.PrimOp {
	s.primOpsOnce.Do(func() { s.primOps = s.computeReachablePrimOps() })
	return s.primOps
}

func (s *Scope) computeReachablePrimOps() []*ir.PrimOp {
	seen := tableFor(s.Entry.World())
	defer gidtab.Put(seen)
	var out []*ir.PrimOp
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		p, ok := d.(*ir.PrimOp)
		if !ok || !seen.Add(p.GID()) {
			return
		}
		for _, op := range p.Ops() {
			visit(op)
		}
		out = append(out, p)
	}
	for _, c := range s.Conts {
		for _, op := range c.Ops() {
			visit(op)
		}
	}
	slices.SortFunc(out, func(a, b *ir.PrimOp) int { return a.GID() - b.GID() })
	return out
}
