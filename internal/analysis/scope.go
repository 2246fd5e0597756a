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
	"sort"
	"sync"
	"sync/atomic"

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
	// Defs contains every def belonging to the scope (incl. entry, params).
	Defs map[ir.Def]bool
	// Conts lists the scope's continuations in ascending gid order with the
	// entry first.
	Conts []*ir.Continuation

	// Free-variable sets are derived, immutable-once-computed properties of
	// the scope; they are memoized because TopLevel() — asked for every
	// scope by every scope-level pass — would otherwise re-derive the full
	// set on each call. sync.Once keeps the memoization safe for the
	// parallel analysis workers that share cached scopes.
	freeDefsOnce   sync.Once
	freeDefs       []ir.Def
	freeParamsOnce sync.Once
	freeParams     []*ir.Param
}

// NewScope computes the scope of entry by a transitive closure over use
// edges starting at entry's parameters (the algorithm of the paper's §4).
func NewScope(entry *ir.Continuation) *Scope {
	scopeBuilds.Add(1)
	s := &Scope{Entry: entry, Defs: make(map[ir.Def]bool)}

	var queue []ir.Def
	push := func(d ir.Def) {
		if !s.Defs[d] {
			s.Defs[d] = true
			queue = append(queue, d)
		}
	}
	push(entry)
	for _, p := range entry.Params() {
		push(p)
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d != entry {
			// Follow use edges: everything that uses a scope member depends
			// on the entry's params and therefore belongs to the scope.
			// EachUse keeps the closure allocation-free; visit order does
			// not matter because membership is a set and Conts is sorted.
			d.EachUse(func(u ir.Use) bool {
				push(u.Def)
				return true
			})
		}
		if c, ok := d.(*ir.Continuation); ok {
			for _, p := range c.Params() {
				push(p)
			}
		}
	}

	for d := range s.Defs {
		if c, ok := d.(*ir.Continuation); ok && c != entry {
			s.Conts = append(s.Conts, c)
		}
	}
	sort.Slice(s.Conts, func(i, j int) bool { return s.Conts[i].GID() < s.Conts[j].GID() })
	s.Conts = append([]*ir.Continuation{entry}, s.Conts...)
	return s
}

// Contains reports whether d belongs to the scope.
func (s *Scope) Contains(d ir.Def) bool { return s.Defs[d] }

// UnchangedSince reports whether no member of the scope has been touched
// (ir.Def.LastTouched) after the given rewrite generation. When it holds, a
// scope computed at gen — and every analysis derived from it — is still
// valid: scope membership is the use-closure of the entry's params, and any
// mutation that grows the closure stamps the used def, any that shrinks it
// stamps the no-longer-used def, and any body change stamps the jumping
// continuation, all of which were members at gen.
func (s *Scope) UnchangedSince(gen int64) bool {
	for d := range s.Defs {
		if d.LastTouched() > gen {
			return false
		}
	}
	return true
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
	seen := map[ir.Def]bool{}
	var free []ir.Def
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		if s.Defs[d] {
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
		_ = d
	}
	for _, c := range s.Conts {
		for _, op := range c.Ops() {
			visit(op)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].GID() < free[j].GID() })
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
	var out []*ir.Param
	seen := map[ir.Def]bool{}
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		if p, ok := d.(*ir.Param); ok && !s.Defs[p] {
			out = append(out, p)
			return
		}
		if !s.Defs[d] {
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
	sort.Slice(out, func(i, j int) bool { return out[i].GID() < out[j].GID() })
	return out
}

// TopLevel reports whether the scope has no free parameters, i.e. the entry
// can be treated as a global function. The underlying free-parameter set is
// memoized, so repeated TopLevel queries (one per scope per scope-level
// pass) cost a single computation.
func (s *Scope) TopLevel() bool { return len(s.FreeParams()) == 0 }

// ReachablePrimOps returns every primop reachable from the bodies of the
// scope's continuations (the defs a backend must materialize), in gid order.
func (s *Scope) ReachablePrimOps() []*ir.PrimOp {
	seen := map[ir.Def]bool{}
	var out []*ir.PrimOp
	var visit func(d ir.Def)
	visit = func(d ir.Def) {
		if seen[d] {
			return
		}
		seen[d] = true
		p, ok := d.(*ir.PrimOp)
		if !ok {
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
	sort.Slice(out, func(i, j int) bool { return out[i].GID() < out[j].GID() })
	return out
}
