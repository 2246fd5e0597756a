package ir

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// FNV-1a constants for the structural interning hashes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashU64 folds the eight bytes of v into an FNV-1a state. Interning keys
// are hashed field-by-field through this — no string key is ever built, so
// a cons hit allocates nothing.
func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// World owns all types and defs of one program. It provides the only way to
// construct IR nodes and guarantees hash-consing: structurally identical
// primops (same kind, type and operands) are represented by a single node,
// which makes global value numbering a side effect of IR construction.
//
// A World is safe for concurrent node construction: the interning tables and
// their statistics share one mutex, the id/salt counters are atomic, and the
// use lists are guarded by striped reader/writer locks.
// Note that hash-consing makes concurrent interning order-independent for
// node identity (both racers get the same node), but gid assignment still
// depends on arrival order — parallel phases that must stay deterministic
// (the pass manager's scope scheduler) therefore keep node *creation* on a
// single goroutine and parallelize only the read-only analysis.
// Continuations remain single-writer: Jump/Unset on one continuation must
// not race with other mutations of the same continuation.
type World struct {
	types   *typeTable
	nextGID atomic.Int64
	salt    atomic.Int64 // uniquifier for non-consed primops (slot/alloc/global)

	// internMu guards both interning tables and the interning statistics.
	// Buckets are keyed by the full 64-bit structural hash; entries that
	// collide on the hash are disambiguated by structural equality (see
	// (*PrimOp).structEq).
	internMu sync.Mutex
	primops  map[uint64][]*PrimOp
	literals map[uint64][]*Literal
	stats    InternStats

	contsMu sync.RWMutex
	conts   []*Continuation

	intrMu     sync.Mutex
	intrinsics map[Intrinsic]*Continuation

	// useStripes guard the per-def use lists (they are mutated whenever a
	// node with operands is created or a continuation re-jumps). Striping by
	// the subject def's gid lets concurrent workers touch disjoint defs
	// without contending on one world-wide lock.
	useStripes [numUseStripes]sync.RWMutex

	// rewriteGen is the rewrite generation: it advances on every observable
	// graph mutation, and defs are stamped with it (see journal.go).
	rewriteGen atomic.Int64

	// The change journal: continuations touched since the last DrainDirty,
	// deduplicated by dirtySet, ordered first-touched-first in dirtyList.
	dirtyMu   sync.Mutex
	dirtySet  map[*Continuation]struct{}
	dirtyList []*Continuation

	// NoCons disables hash-consing (for the ablation experiment A1).
	NoCons bool
}

// NewWorld creates an empty world.
func NewWorld() *World {
	w := &World{
		types:      newTypeTable(),
		primops:    make(map[uint64][]*PrimOp),
		literals:   make(map[uint64][]*Literal),
		intrinsics: make(map[Intrinsic]*Continuation),
		dirtySet:   make(map[*Continuation]struct{}),
	}
	return w
}

// Continuations returns all live continuations, in creation order. The
// returned slice is a snapshot: it stays valid while the world mutates.
func (w *World) Continuations() []*Continuation {
	w.contsMu.RLock()
	defer w.contsMu.RUnlock()
	return append([]*Continuation(nil), w.conts...)
}

// Externs returns all externally visible continuations.
func (w *World) Externs() []*Continuation {
	w.contsMu.RLock()
	defer w.contsMu.RUnlock()
	var out []*Continuation
	for _, c := range w.conts {
		if c.extern {
			out = append(out, c)
		}
	}
	return out
}

// Find returns the continuation with the given name, or nil.
func (w *World) Find(name string) *Continuation {
	w.contsMu.RLock()
	defer w.contsMu.RUnlock()
	for _, c := range w.conts {
		if c.name == name {
			return c
		}
	}
	return nil
}

// InternStats is a snapshot of the hash-consing counters; Requested ==
// ConsHits + Nodes holds for every snapshot.
type InternStats struct {
	Requested int `json:"requested"` // primop constructions requested
	ConsHits  int `json:"cons_hits"` // served from the hash-cons table
	Nodes     int `json:"nodes"`     // distinct primop nodes interned
}

// InternStats snapshots the interning counters.
func (w *World) InternStats() InternStats {
	w.internMu.Lock()
	defer w.internMu.Unlock()
	return w.stats
}

// Stats returns (primop constructions requested, hash-cons hits, live
// continuation count). See InternStats for the consistency guarantee.
func (w *World) Stats() (requested, consHits, conts int) {
	w.contsMu.RLock()
	n := len(w.conts)
	w.contsMu.RUnlock()
	s := w.InternStats()
	return s.Requested, s.ConsHits, n
}

// NumPrimOps returns the number of distinct primop nodes in the world.
func (w *World) NumPrimOps() int { return w.InternStats().Nodes }

// NumContinuations returns the number of live continuations.
func (w *World) NumContinuations() int {
	w.contsMu.RLock()
	defer w.contsMu.RUnlock()
	return len(w.conts)
}

// Generation returns a counter that advances whenever a new node of any
// kind is allocated. Together with the continuation and primop counts it
// forms a cheap change fingerprint: a pass that created or removed nodes is
// guaranteed to move at least one of the three (the pass manager uses this
// as its fixpoint signal).
func (w *World) Generation() int { return int(w.nextGID.Load()) }

func (w *World) newGID() int {
	return int(w.nextGID.Add(1))
}

// Continuation creates a new continuation of the given type. Its params are
// created eagerly; the body is unset until Jump is called.
func (w *World) Continuation(t *FnType, name string) *Continuation {
	c := &Continuation{defBase: defBase{world: w, gid: w.newGID(), typ: t, name: name}}
	c.params = make([]*Param, len(t.Params))
	for i, pt := range t.Params {
		c.params[i] = &Param{
			defBase: defBase{world: w, gid: w.newGID(), typ: pt},
			cont:    c,
			index:   i,
		}
	}
	w.contsMu.Lock()
	w.conts = append(w.conts, c)
	w.contsMu.Unlock()
	// Creation is journaled so a drain sees brand-new continuations even
	// before their first Jump (cleanup may sweep a bodyless cont, and a pass
	// that only creates conts must still read as "changed something").
	w.touch(c)
	w.journal(c)
	return c
}

// BasicBlock creates a continuation taking only a memory token — the
// canonical shape of a branch target.
func (w *World) BasicBlock(name string) *Continuation {
	return w.Continuation(w.FnType(w.MemType()), name)
}

// RemoveContinuations unlinks every continuation of dead from the world in
// one pass over the continuation list (used by cleanup's sweep). The caller
// must have unset each body first so use lists stay consistent.
func (w *World) RemoveContinuations(dead []*Continuation) {
	if len(dead) == 0 {
		return
	}
	drop := make(map[*Continuation]bool, len(dead))
	for _, c := range dead {
		drop[c] = true
	}
	var removed []*Continuation
	w.contsMu.Lock()
	kept := w.conts[:0]
	for _, c := range w.conts {
		if drop[c] {
			removed = append(removed, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(w.conts[len(kept):])
	w.conts = kept
	w.contsMu.Unlock()
	for _, c := range removed {
		w.touch(c)
		w.journal(c)
	}
}

// Branch returns the branch intrinsic continuation:
// branch(mem, cond, ifTrue: fn(mem), ifFalse: fn(mem)).
func (w *World) Branch() *Continuation {
	return w.intrinsic(IntrinsicBranch, w.FnType(
		w.MemType(), w.BoolType(), w.FnType(w.MemType()), w.FnType(w.MemType()),
	))
}

// PrintI64 returns the print_i64 intrinsic: print_i64(mem, i64, ret: fn(mem)).
func (w *World) PrintI64() *Continuation {
	return w.intrinsic(IntrinsicPrintI64, w.FnType(
		w.MemType(), w.PrimType(PrimI64), w.FnType(w.MemType()),
	))
}

// PrintF64 returns the print_f64 intrinsic: print_f64(mem, f64, ret: fn(mem)).
func (w *World) PrintF64() *Continuation {
	return w.intrinsic(IntrinsicPrintF64, w.FnType(
		w.MemType(), w.PrimType(PrimF64), w.FnType(w.MemType()),
	))
}

// PrintChar returns the print_char intrinsic: print_char(mem, i64, ret: fn(mem)).
func (w *World) PrintChar() *Continuation {
	return w.intrinsic(IntrinsicPrintChar, w.FnType(
		w.MemType(), w.PrimType(PrimI64), w.FnType(w.MemType()),
	))
}

func (w *World) intrinsic(tag Intrinsic, t *FnType) *Continuation {
	w.intrMu.Lock()
	defer w.intrMu.Unlock()
	if c, ok := w.intrinsics[tag]; ok {
		return c
	}
	c := w.Continuation(t, tag.String())
	c.intrinsic = tag
	c.extern = true
	w.intrinsics[tag] = c
	return c
}

// ---------------------------------------------------------------------------
// Literals
// ---------------------------------------------------------------------------

func (w *World) literal(t Type, i int64, f float64, bottom bool) *Literal {
	fbits := math.Float64bits(f)
	h := hashU64(fnvOffset64, uint64(t.ID()))
	h = hashU64(h, uint64(i))
	h = hashU64(h, fbits)
	if bottom {
		h = hashU64(h, 1)
	}
	w.internMu.Lock()
	defer w.internMu.Unlock()
	for _, l := range w.literals[h] {
		if l.typ == t && l.I == i && math.Float64bits(l.F) == fbits && l.Bottom == bottom {
			return l
		}
	}
	l := &Literal{defBase: defBase{world: w, gid: w.newGID(), typ: t}, I: i, F: f, Bottom: bottom}
	w.literals[h] = append(w.literals[h], l)
	return l
}

// LitInt returns the integer literal v of the given primitive tag. The value
// is truncated to the tag's width.
func (w *World) LitInt(tag PrimTypeTag, v int64) *Literal {
	return w.literal(w.PrimType(tag), truncInt(tag, v), 0, false)
}

// LitI64 returns an i64 literal.
func (w *World) LitI64(v int64) *Literal { return w.LitInt(PrimI64, v) }

// LitI32 returns an i32 literal.
func (w *World) LitI32(v int32) *Literal { return w.LitInt(PrimI32, int64(v)) }

// LitBool returns a bool literal.
func (w *World) LitBool(v bool) *Literal {
	i := int64(0)
	if v {
		i = 1
	}
	return w.literal(w.BoolType(), i, 0, false)
}

// LitFloat returns a floating literal of the given tag (PrimF32 or PrimF64).
func (w *World) LitFloat(tag PrimTypeTag, v float64) *Literal {
	if tag == PrimF32 {
		v = float64(float32(v))
	}
	return w.literal(w.PrimType(tag), 0, v, false)
}

// LitF64 returns an f64 literal.
func (w *World) LitF64(v float64) *Literal { return w.LitFloat(PrimF64, v) }

// Bottom returns the undefined value of type t.
func (w *World) Bottom(t Type) *Literal { return w.literal(t, 0, 0, true) }

// Zero returns the zero literal of a primitive type.
func (w *World) Zero(tag PrimTypeTag) *Literal {
	if tag.IsFloat() {
		return w.LitFloat(tag, 0)
	}
	return w.LitInt(tag, 0)
}

func truncInt(tag PrimTypeTag, v int64) int64 {
	switch tag {
	case PrimBool:
		if v != 0 {
			return 1
		}
		return 0
	case PrimI8:
		return int64(int8(v))
	case PrimI16:
		return int64(int16(v))
	case PrimI32:
		return int64(int32(v))
	default:
		return v
	}
}

// ---------------------------------------------------------------------------
// PrimOp construction (hash-consed)
// ---------------------------------------------------------------------------

// primopHash is the structural interning hash: FNV-1a over the kind, type
// identity, salt and operand gids. Types are interned, so the type ID fully
// identifies the type; operands are identified by gid (stable for the
// lifetime of the world).
func primopHash(kind OpKind, t Type, salt int, ops []Def) uint64 {
	h := hashU64(fnvOffset64, uint64(kind))
	h = hashU64(h, uint64(t.ID()))
	h = hashU64(h, uint64(salt))
	for _, o := range ops {
		h = hashU64(h, uint64(o.GID()))
	}
	return h
}

// structEq reports whether p is the primop (kind, t, salt, ops) — the
// collision check behind the structural hash. Types and operands are
// interned/unique, so pointer comparison is exact.
func (p *PrimOp) structEq(kind OpKind, t Type, salt int, ops []Def) bool {
	if p.kind != kind || p.typ != t || p.salt != salt || len(p.ops) != len(ops) {
		return false
	}
	for i, o := range ops {
		if p.ops[i] != o {
			return false
		}
	}
	return true
}

// cse constructs or reuses the primop (kind, t, ops).
func (w *World) cse(kind OpKind, t Type, ops ...Def) *PrimOp {
	return w.cseSalted(kind, t, 0, ops...)
}

func (w *World) cseSalted(kind OpKind, t Type, salt int, ops ...Def) *PrimOp {
	for i, o := range ops {
		if o == nil {
			panic(fmt.Sprintf("ir: %s: nil operand %d", kind, i))
		}
	}
	if w.NoCons {
		salt = int(w.salt.Add(1))
	}
	h := primopHash(kind, t, salt, ops)
	w.internMu.Lock()
	defer w.internMu.Unlock()
	w.stats.Requested++
	for _, p := range w.primops[h] {
		if p.structEq(kind, t, salt, ops) {
			w.stats.ConsHits++
			return p
		}
	}
	p := &PrimOp{
		defBase: defBase{world: w, gid: w.newGID(), typ: t, ops: append([]Def(nil), ops...)},
		kind:    kind,
		salt:    salt,
	}
	registerUses(p)
	w.primops[h] = append(w.primops[h], p)
	w.stats.Nodes++
	return p
}

// uniqueSalt returns a fresh salt so the next cseSalted call creates a node
// that is never shared (slots, allocs, globals).
func (w *World) uniqueSalt() int {
	return int(w.salt.Add(1))
}

// RawPrimOp interns a primop of an arbitrary kind without the smart
// constructors' folding, normalization or shape checks. It exists for tests
// and fuzzers that need to exercise error paths on operations the
// constructors would fold away or reject (e.g. an OpInvalid node); ordinary
// construction must go through the typed constructors.
func (w *World) RawPrimOp(kind OpKind, t Type, ops ...Def) *PrimOp {
	return w.cseSalted(kind, t, w.uniqueSalt(), ops...)
}

// Arith constructs an arithmetic primop, folding and normalizing where
// possible.
func (w *World) Arith(kind OpKind, a, b Def) Def {
	if !kind.IsArith() {
		panic("ir: Arith with non-arith kind " + kind.String())
	}
	pt, ok := a.Type().(*PrimType)
	if !ok || a.Type() != b.Type() {
		panic(fmt.Sprintf("ir: %s: operand type mismatch %s vs %s", kind, a.Type(), b.Type()))
	}
	if d := foldArith(w, kind, pt.Tag, a, b); d != nil {
		return d
	}
	if kind.IsCommutative() {
		// Canonical operand order: literal last, then by gid.
		if IsLit(a) && !IsLit(b) {
			a, b = b, a
		} else if !IsLit(a) && !IsLit(b) && a.GID() > b.GID() {
			a, b = b, a
		}
	}
	return w.cse(kind, a.Type(), a, b)
}

// Cmp constructs a comparison primop (result type bool), folding literals.
func (w *World) Cmp(kind OpKind, a, b Def) Def {
	if !kind.IsCmp() {
		panic("ir: Cmp with non-cmp kind " + kind.String())
	}
	if a.Type() != b.Type() {
		panic(fmt.Sprintf("ir: %s: operand type mismatch %s vs %s", kind, a.Type(), b.Type()))
	}
	if d := foldCmp(w, kind, a, b); d != nil {
		return d
	}
	if kind.IsCommutative() {
		// eq/ne are symmetric: canonicalize operand order.
		if IsLit(a) && !IsLit(b) {
			a, b = b, a
		} else if !IsLit(a) && !IsLit(b) && a.GID() > b.GID() {
			a, b = b, a
		}
	}
	return w.cse(kind, w.BoolType(), a, b)
}

// Select returns cond ? a : b, folding constant conditions.
func (w *World) Select(cond, a, b Def) Def {
	if a.Type() != b.Type() {
		panic("ir: select: arm type mismatch")
	}
	if v, ok := LitValue(cond); ok {
		if v != 0 {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	return w.cse(OpSelect, a.Type(), cond, a, b)
}

// Tuple aggregates the given defs.
func (w *World) Tuple(elems ...Def) Def {
	ts := make([]Type, len(elems))
	for i, e := range elems {
		ts[i] = e.Type()
	}
	return w.cse(OpTuple, w.TupleType(ts...), elems...)
}

// Unit returns the empty tuple.
func (w *World) Unit() Def { return w.Tuple() }

// Extract returns component index of agg. Extracting from a tuple literal or
// through an insert folds.
func (w *World) Extract(agg Def, index Def) Def {
	elemT := extractType(agg.Type(), index)
	if i, ok := LitValue(index); ok {
		if t := AsPrimOp(agg, OpTuple); t != nil {
			return t.Op(int(i))
		}
		if ins := AsPrimOp(agg, OpInsert); ins != nil {
			if j, ok := LitValue(ins.Op(1)); ok {
				if i == j {
					return ins.Op(2)
				}
				return w.Extract(ins.Op(0), index)
			}
		}
	}
	return w.cse(OpExtract, elemT, agg, index)
}

// ExtractAt is Extract with a constant i64 index.
func (w *World) ExtractAt(agg Def, i int) Def {
	return w.Extract(agg, w.LitI64(int64(i)))
}

func extractType(agg Type, index Def) Type {
	switch t := agg.(type) {
	case *TupleType:
		i, ok := LitValue(index)
		if !ok {
			panic("ir: extract from tuple needs constant index")
		}
		return t.ElemTypes[i]
	case *ArrayType:
		return t.Elem
	case *IndefArrayType:
		return t.Elem
	}
	panic("ir: extract from non-aggregate type " + agg.String())
}

// Insert returns agg with component index replaced by value.
func (w *World) Insert(agg, index, value Def) Def {
	return w.cse(OpInsert, agg.Type(), agg, index, value)
}

// Cast converts a numeric value to primitive type dst.
func (w *World) Cast(dst *PrimType, a Def) Def {
	src, ok := a.Type().(*PrimType)
	if !ok {
		panic("ir: cast of non-primitive " + a.Type().String())
	}
	if src == dst {
		return a
	}
	if l, ok := a.(*Literal); ok && !l.Bottom {
		return foldCast(w, dst, src, l)
	}
	return w.cse(OpCast, dst, a)
}

// Bitcast reinterprets a's bits as type dst.
func (w *World) Bitcast(dst Type, a Def) Def {
	if a.Type() == dst {
		return a
	}
	return w.cse(OpBitcast, dst, a)
}

// Slot allocates a stack cell of type t; result is (mem, t*). Slots are
// never shared by hash-consing: every call creates a fresh cell.
func (w *World) Slot(mem Def, t Type) Def {
	rt := w.TupleType(w.MemType(), w.PtrType(t))
	return w.cseSalted(OpSlot, rt, w.uniqueSalt(), mem)
}

// Alloc allocates an array of count elements of type t on the heap; result
// is (mem, [t]*). Never shared.
func (w *World) Alloc(mem Def, t Type, count Def) Def {
	rt := w.TupleType(w.MemType(), w.PtrType(w.IndefArrayType(t)))
	return w.cseSalted(OpAlloc, rt, w.uniqueSalt(), mem, count)
}

// Load reads through ptr; result is (mem, value).
func (w *World) Load(mem, ptr Def) Def {
	pt, ok := ptr.Type().(*PtrType)
	if !ok {
		panic("ir: load through non-pointer " + ptr.Type().String())
	}
	return w.cse(OpLoad, w.TupleType(w.MemType(), pt.Pointee), mem, ptr)
}

// Store writes value through ptr; result is mem.
func (w *World) Store(mem, ptr, value Def) Def {
	pt, ok := ptr.Type().(*PtrType)
	if !ok {
		panic("ir: store through non-pointer " + ptr.Type().String())
	}
	if pt.Pointee != value.Type() {
		panic(fmt.Sprintf("ir: store type mismatch: %s into %s", value.Type(), pt))
	}
	return w.cse(OpStore, w.MemType(), mem, ptr, value)
}

// Lea computes the address of element index of the array pointed to by ptr.
func (w *World) Lea(ptr, index Def) Def {
	pt, ok := ptr.Type().(*PtrType)
	if !ok {
		panic("ir: lea through non-pointer")
	}
	var elem Type
	switch at := pt.Pointee.(type) {
	case *ArrayType:
		elem = at.Elem
	case *IndefArrayType:
		elem = at.Elem
	default:
		panic("ir: lea into non-array pointee " + pt.Pointee.String())
	}
	return w.cse(OpLea, w.PtrType(elem), ptr, index)
}

// ALen returns the runtime length of the indefinite array pointed to by ptr.
func (w *World) ALen(ptr Def) Def {
	pt, ok := ptr.Type().(*PtrType)
	if !ok {
		panic("ir: alen of non-pointer")
	}
	if _, ok := pt.Pointee.(*IndefArrayType); !ok {
		panic("ir: alen of non-array pointee " + pt.Pointee.String())
	}
	return w.cse(OpALen, w.PrimType(PrimI64), ptr)
}

// Global creates a mutable global cell with the given initializer; result is
// a pointer. Never shared.
func (w *World) Global(init Def) Def {
	return w.cseSalted(OpGlobal, w.PtrType(init.Type()), w.uniqueSalt(), init)
}

// Closure pairs fn (a continuation or function-typed def) with captured
// environment values. Produced by closure conversion.
func (w *World) Closure(t *FnType, fn Def, env ...Def) Def {
	ops := append([]Def{fn}, env...)
	return w.cse(OpClosure, t, ops...)
}

// Run marks def to be forced by the partial evaluator.
func (w *World) Run(d Def) Def { return w.cse(OpRun, d.Type(), d) }

// Hlt marks def to be left alone by the partial evaluator.
func (w *World) Hlt(d Def) Def { return w.cse(OpHlt, d.Type(), d) }

// Rebuild constructs a primop of kind k over ops through k's smart
// constructor, so folding and hash-consing apply; it is the one place that
// maps a kind to its constructor. ty, a type of w, is read only by the kinds
// whose result type the operands do not imply: cast, bitcast, slot, alloc
// and closure. Slots, allocs and globals built this way get fresh identity.
// An operand count outside the kind's opShapes contract, a result type of
// the wrong shape or an unknown kind is an error rather than a panic.
func (w *World) Rebuild(k OpKind, ty Type, ops []Def) (Def, error) {
	sh, ok := opShapes[k]
	if !ok {
		return nil, fmt.Errorf("ir: cannot rebuild primop %s (kind %d)", k, int(k))
	}
	if !sh.admits(len(ops)) {
		return nil, fmt.Errorf("ir: %s: %d operands (want %s)", k, len(ops), sh.arity())
	}
	switch {
	case k.IsArith():
		return w.Arith(k, ops[0], ops[1]), nil
	case k.IsCmp():
		return w.Cmp(k, ops[0], ops[1]), nil
	}
	switch k {
	case OpSelect:
		return w.Select(ops[0], ops[1], ops[2]), nil
	case OpTuple:
		return w.Tuple(ops...), nil
	case OpExtract:
		return w.Extract(ops[0], ops[1]), nil
	case OpInsert:
		return w.Insert(ops[0], ops[1], ops[2]), nil
	case OpCast:
		if pt, ok := ty.(*PrimType); ok {
			return w.Cast(pt, ops[0]), nil
		}
		return nil, fmt.Errorf("ir: cast to non-primitive type %s", ty)
	case OpBitcast:
		return w.Bitcast(ty, ops[0]), nil
	case OpSlot:
		if t, ok := memPtrPointee(ty); ok {
			return w.Slot(ops[0], t), nil
		}
		return nil, fmt.Errorf("ir: slot result type %s is not (mem, T*)", ty)
	case OpAlloc:
		if t, ok := memPtrPointee(ty); ok {
			if at, ok := t.(*IndefArrayType); ok {
				return w.Alloc(ops[0], at.Elem, ops[1]), nil
			}
		}
		return nil, fmt.Errorf("ir: alloc result type %s is not (mem, [T]*)", ty)
	case OpLoad:
		return w.Load(ops[0], ops[1]), nil
	case OpStore:
		return w.Store(ops[0], ops[1], ops[2]), nil
	case OpLea:
		return w.Lea(ops[0], ops[1]), nil
	case OpALen:
		return w.ALen(ops[0]), nil
	case OpGlobal:
		return w.Global(ops[0]), nil
	case OpClosure:
		if ft, ok := ty.(*FnType); ok {
			return w.Closure(ft, ops[0], ops[1:]...), nil
		}
		return nil, fmt.Errorf("ir: closure type %s is not a function type", ty)
	case OpRun:
		return w.Run(ops[0]), nil
	case OpHlt:
		return w.Hlt(ops[0]), nil
	}
	return nil, fmt.Errorf("ir: cannot rebuild primop %s (kind %d)", k, int(k))
}

// memPtrPointee returns T for the (mem, T*) result type of a slot or alloc.
func memPtrPointee(ty Type) (Type, bool) {
	tt, ok := ty.(*TupleType)
	if !ok || len(tt.ElemTypes) != 2 || !IsMemType(tt.ElemTypes[0]) {
		return nil, false
	}
	pt, ok := tt.ElemTypes[1].(*PtrType)
	if !ok {
		return nil, false
	}
	return pt.Pointee, true
}
