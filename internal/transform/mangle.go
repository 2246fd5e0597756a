package transform

import (
	"fmt"

	"thorin/internal/ir"

	"thorin/internal/analysis"
)

// Mangler implements lambda mangling, the paper's single scope
// transformation that subsumes inlining, lambda lifting, lambda dropping,
// loop peeling and tail-recursion specialization.
//
// Mangling rebuilds the scope of an entry continuation while
//
//   - substituting concrete values for a subset of the entry's parameters
//     (dropping / specialization),
//   - abstracting a set of scope-free defs into fresh parameters (lifting).
//
// Recursive calls of the entry that pass the *same* dropped values are
// rewired to the mangled entry — this is what turns a tail-recursive
// higher-order function into a first-order loop after specialization.
type Mangler struct {
	w     *ir.World
	scope *analysis.Scope
	entry *ir.Continuation
	args  []ir.Def // per old param; nil = keep
	lift  []ir.Def // free defs to abstract into new params

	old2new  map[ir.Def]ir.Def
	newEntry *ir.Continuation
	bodies   []*ir.Continuation // cloned continuations awaiting body rewrite
	srcBody  map[*ir.Continuation]*ir.Continuation
	recArgs  []slot // new-entry parameter layout, for recursion rewiring
	// peel leaves recursive calls pointing at the *original* entry instead
	// of rewiring them to the copy — the copy then executes exactly one
	// iteration before re-entering the original loop (loop peeling).
	peel bool
	// err records the first Rebuild failure; mangle must keep returning a
	// def mid-traversal, so errors are collected here and surfaced by run.
	err error
}

// slot describes one parameter of the mangled entry: either a kept old
// parameter or a lifted def.
type slot struct {
	oldIdx  int // >= 0: kept old param index
	liftIdx int // >= 0: lifted def index
}

// Mangle rebuilds scope s, substituting args[i] for parameter i where
// args[i] != nil and appending one parameter per lift def. It returns the
// new entry continuation, or an error when args does not match the entry's
// parameter list — a malformed pass invocation that must fail the pipeline
// by name rather than crash the process.
func Mangle(s *analysis.Scope, args []ir.Def, lift []ir.Def) (*ir.Continuation, error) {
	entry := s.Entry
	if len(args) != entry.NumParams() {
		return nil, fmt.Errorf("transform: mangle %s: got %d args for %d params",
			entry.Name(), len(args), entry.NumParams())
	}
	m := &Mangler{
		w:       entry.World(),
		scope:   s,
		entry:   entry,
		args:    args,
		lift:    lift,
		old2new: make(map[ir.Def]ir.Def),
		srcBody: make(map[*ir.Continuation]*ir.Continuation),
	}
	nc := m.run()
	if m.err != nil {
		return nil, m.err
	}
	return nc, nil
}

// Drop specializes the entry of s: args[i] != nil fixes parameter i.
func Drop(s *analysis.Scope, args []ir.Def) (*ir.Continuation, error) {
	return Mangle(s, args, nil)
}

// Lift abstracts the given free defs of s into parameters, yielding an
// entry whose scope no longer references them directly (lambda lifting).
func Lift(s *analysis.Scope, lift []ir.Def) (*ir.Continuation, error) {
	return Mangle(s, make([]ir.Def, s.Entry.NumParams()), lift)
}

func (m *Mangler) run() *ir.Continuation {
	w := m.w
	oldFt := m.entry.FnType()

	// Parameter layout of the mangled entry: the kept old params in order,
	// with the lifted defs inserted *before* a kept trailing return
	// continuation so the returning-call convention (ret param last) is
	// preserved for lambda-lifted functions.
	var slots []slot
	for i, a := range m.args {
		if a == nil {
			slots = append(slots, slot{oldIdx: i, liftIdx: -1})
		}
	}
	liftSlots := make([]slot, len(m.lift))
	for i := range m.lift {
		liftSlots[i] = slot{oldIdx: -1, liftIdx: i}
	}
	retKept := len(slots) > 0 &&
		m.entry.RetParam() != nil &&
		slots[len(slots)-1].oldIdx == m.entry.NumParams()-1
	if retKept {
		last := slots[len(slots)-1]
		slots = append(append(slots[:len(slots)-1:len(slots)-1], liftSlots...), last)
	} else {
		slots = append(slots, liftSlots...)
	}

	types := make([]ir.Type, len(slots))
	for i, s := range slots {
		if s.oldIdx >= 0 {
			types[i] = oldFt.Params[s.oldIdx]
		} else {
			types[i] = m.lift[s.liftIdx].Type()
		}
	}
	m.newEntry = w.Continuation(w.FnType(types...), m.entry.Name()+".m")
	m.newEntry.AlwaysInline = m.entry.AlwaysInline
	m.newEntry.NoInline = m.entry.NoInline

	// Map old params to either the substituted value or the new param.
	for i, a := range m.args {
		if a != nil {
			m.old2new[m.entry.Param(i)] = a
		}
	}
	for i, s := range slots {
		np := m.newEntry.Param(i)
		if s.oldIdx >= 0 {
			op := m.entry.Param(s.oldIdx)
			np.SetName(op.Name())
			m.old2new[op] = np
		} else {
			m.old2new[m.lift[s.liftIdx]] = np
		}
	}
	m.recArgs = slots

	// Rewrite the entry body, then all lazily cloned continuations.
	m.mangleBody(m.entry, m.newEntry)
	for len(m.bodies) > 0 {
		nc := m.bodies[len(m.bodies)-1]
		m.bodies = m.bodies[:len(m.bodies)-1]
		m.mangleBody(m.srcBody[nc], nc)
	}
	return m.newEntry
}

// mangleBody rewrites old's jump into the clone nc.
func (m *Mangler) mangleBody(old, nc *ir.Continuation) {
	if !old.HasBody() {
		return
	}
	args := make([]ir.Def, old.NumArgs())
	for i, a := range old.Args() {
		args[i] = m.mangle(a)
	}

	callee := old.Callee()
	if callee == m.entry && !m.peel && m.recursionMatches(args) {
		// Recursive call with identical specialized values: retarget to the
		// mangled entry, keeping only the non-dropped arguments and
		// re-passing the lifted parameters (in the new layout order).
		kept := make([]ir.Def, len(m.recArgs))
		for i, s := range m.recArgs {
			if s.oldIdx >= 0 {
				kept[i] = args[s.oldIdx]
			} else {
				kept[i] = m.old2new[m.lift[s.liftIdx]]
			}
		}
		nc.Jump(m.newEntry, kept...)
		return
	}
	nc.Jump(m.mangle(callee), args...)
}

// recursionMatches reports whether a recursive call passes exactly the
// values being dropped at every dropped position.
func (m *Mangler) recursionMatches(args []ir.Def) bool {
	for i, spec := range m.args {
		if spec != nil && args[i] != spec {
			return false
		}
	}
	return true
}

// mangle rewrites one def of the old scope into the new scope.
func (m *Mangler) mangle(d ir.Def) ir.Def {
	if n, ok := m.old2new[d]; ok {
		return n
	}
	if !m.scope.Contains(d) {
		return d // free: literals, globals, outer params, other functions
	}
	switch d := d.(type) {
	case *ir.Continuation:
		if d == m.entry {
			// The entry escaping as a value refers to the original
			// (unspecialized) function.
			return d
		}
		nc := m.w.Continuation(d.FnType(), d.Name())
		nc.AlwaysInline = d.AlwaysInline
		nc.NoInline = d.NoInline
		m.old2new[d] = nc
		for i, p := range d.Params() {
			nc.Param(i).SetName(p.Name())
			m.old2new[p] = nc.Param(i)
		}
		m.srcBody[nc] = d
		m.bodies = append(m.bodies, nc)
		return nc
	case *ir.Param:
		// A param of a scope continuation is mapped when its continuation
		// is cloned; force the clone.
		m.mangle(d.Cont())
		return m.old2new[d]
	case *ir.PrimOp:
		ops := make([]ir.Def, d.NumOps())
		for i, op := range d.Ops() {
			ops[i] = m.mangle(op)
		}
		n, err := Rebuild(m.w, d, ops)
		if err != nil {
			if m.err == nil {
				m.err = err
			}
			return d // placeholder; the caller aborts on m.err
		}
		m.old2new[d] = n
		return n
	default:
		return d
	}
}

// inlineCallWith replaces caller's jump to callee with a specialized copy of
// callee's scope in which all parameters are bound to the call's arguments
// (the mangling formulation of inlining: drop every parameter, then jump to
// the parameterless result). The callee's scope is served from ac (nil =
// compute fresh).
func inlineCallWith(caller *ir.Continuation, ac *analysis.Cache) bool {
	callee, ok := caller.Callee().(*ir.Continuation)
	if !ok || !callee.HasBody() || callee.IsIntrinsic() || caller == callee {
		return false
	}
	args := append([]ir.Def(nil), caller.Args()...)
	if len(args) != callee.NumParams() {
		return false
	}
	dropped, err := Drop(ac.ScopeOf(callee), args)
	if err != nil {
		return false // unreachable given the arity check above
	}
	caller.Jump(dropped)
	return true
}

// contWorklist is the scan order shared by the specializing passes (partial
// evaluation, CFF lowering): a LIFO of continuations deduplicated while
// enqueued, seeded with the world's continuations in creation order.
type contWorklist struct {
	work   []*ir.Continuation
	inWork map[*ir.Continuation]bool
}

func newContWorklist(seed []*ir.Continuation) *contWorklist {
	wl := &contWorklist{inWork: make(map[*ir.Continuation]bool, len(seed))}
	for _, c := range seed {
		wl.push(c)
	}
	return wl
}

func (wl *contWorklist) push(c *ir.Continuation) {
	if !wl.inWork[c] {
		wl.inWork[c] = true
		wl.work = append(wl.work, c)
	}
}

func (wl *contWorklist) pop() (*ir.Continuation, bool) {
	if len(wl.work) == 0 {
		return nil, false
	}
	c := wl.work[len(wl.work)-1]
	wl.work = wl.work[:len(wl.work)-1]
	wl.inWork[c] = false
	return c, true
}

// specializer is the specialize-then-rescan step shared by the partial
// evaluator and CFF lowering: Drop the callee's scope against an argument
// vector, cache the copy per (callee, args) key so repeated call sites share
// one specialization, enqueue the copy's scope for another scan, and rewire
// the call site to the copy passing only the non-dropped arguments.
type specializer struct {
	ac     *analysis.Cache
	suffix string // debug-name suffix of specialized copies (".pe", ".cff")
	cache  map[string]*ir.Continuation
	wl     *contWorklist
}

func newSpecializer(ac *analysis.Cache, suffix string, wl *contWorklist) *specializer {
	return &specializer{
		ac:     ac,
		suffix: suffix,
		cache:  make(map[string]*ir.Continuation),
		wl:     wl,
	}
}

// specialize retargets caller's jump to a copy of callee with args[i] != nil
// substituted for parameter i. It reports whether a new copy was built (false
// = an existing specialization was reused).
func (sp *specializer) specialize(caller, callee *ir.Continuation, args []ir.Def) (bool, error) {
	key := specKey(callee, args)
	spec, ok := sp.cache[key]
	fresh := false
	if !ok {
		var err error
		spec, err = Drop(sp.ac.ScopeOf(callee), args)
		if err != nil {
			return false, err
		}
		spec.SetName(callee.Name() + sp.suffix)
		sp.cache[key] = spec
		for _, c := range sp.ac.ScopeOf(spec).Conts {
			sp.wl.push(c)
		}
		fresh = true
	}
	var kept []ir.Def
	for i, a := range caller.Args() {
		if args[i] == nil {
			kept = append(kept, a)
		}
	}
	caller.Jump(spec, kept...)
	sp.wl.push(caller)
	return fresh, nil
}
