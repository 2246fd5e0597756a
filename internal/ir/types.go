// Package ir implements the Thorin intermediate representation: a
// graph-based, higher-order IR in continuation-passing style as described in
// "A graph-based higher-order intermediate representation" (CGO 2015).
//
// The IR has exactly two kinds of program constructs: continuations
// (functions that never return; see Continuation) and primops (pure
// primitive operations; see PrimOp). There is no syntactic nesting: a
// program is a sea of nodes connected by data dependencies, and the scope of
// a continuation is computed on demand from the dependency graph (see
// package analysis).
//
// All primops and types are hash-consed inside a World, so structural
// equality coincides with pointer equality and global value numbering is a
// by-product of IR construction.
package ir

import (
	"fmt"
	"strings"
	"sync"
)

// TypeKind discriminates the concrete type of a Type.
type TypeKind uint8

// Type kinds.
const (
	TypeKindPrim TypeKind = iota
	TypeKindFn
	TypeKindTuple
	TypeKindPtr
	TypeKindArray      // definite-size array [n x T]
	TypeKindIndefArray // indefinite-size array [T]
	TypeKindMem        // the memory token type
	TypeKindFrame      // a stack frame (result of slot groups); kept for fidelity
)

// PrimTypeTag enumerates the primitive scalar types.
type PrimTypeTag uint8

// Primitive type tags.
const (
	PrimBool PrimTypeTag = iota
	PrimI8
	PrimI16
	PrimI32
	PrimI64
	PrimF32
	PrimF64
)

func (t PrimTypeTag) String() string {
	switch t {
	case PrimBool:
		return "bool"
	case PrimI8:
		return "i8"
	case PrimI16:
		return "i16"
	case PrimI32:
		return "i32"
	case PrimI64:
		return "i64"
	case PrimF32:
		return "f32"
	case PrimF64:
		return "f64"
	}
	return fmt.Sprintf("prim(%d)", uint8(t))
}

// IsInt reports whether the tag denotes an integer type (bool excluded).
func (t PrimTypeTag) IsInt() bool { return t >= PrimI8 && t <= PrimI64 }

// IsFloat reports whether the tag denotes a floating-point type.
func (t PrimTypeTag) IsFloat() bool { return t == PrimF32 || t == PrimF64 }

// Bits returns the width of the primitive type in bits.
func (t PrimTypeTag) Bits() int {
	switch t {
	case PrimBool:
		return 1
	case PrimI8:
		return 8
	case PrimI16:
		return 16
	case PrimI32:
		return 32
	case PrimI64, PrimF64:
		return 64
	case PrimF32:
		return 32
	}
	return 0
}

// Type is an interned (hash-consed) Thorin type. Two types are structurally
// equal if and only if they are pointer-equal within one World.
type Type interface {
	// Kind returns the type's kind tag.
	Kind() TypeKind
	// Elems returns the component types (function domain, tuple elements,
	// pointee, or array element).
	Elems() []Type
	// ID returns the dense interning index of this type within its World.
	ID() int
	// String returns the Thorin-syntax rendering of the type.
	String() string

	setID(int)
}

type typeBase struct {
	id int
}

func (b *typeBase) ID() int      { return b.id }
func (b *typeBase) setID(id int) { b.id = id }

// PrimType is a primitive scalar type.
type PrimType struct {
	typeBase
	Tag PrimTypeTag
}

// Kind implements Type.
func (*PrimType) Kind() TypeKind { return TypeKindPrim }

// Elems implements Type.
func (*PrimType) Elems() []Type { return nil }

func (t *PrimType) String() string { return t.Tag.String() }

// FnType is the type of a continuation. Continuations never return, so a
// function type has only a domain: fn(T0, ..., Tn).
type FnType struct {
	typeBase
	Params []Type
}

// Kind implements Type.
func (*FnType) Kind() TypeKind { return TypeKindFn }

// Elems implements Type.
func (t *FnType) Elems() []Type { return t.Params }

func (t *FnType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	return "fn(" + strings.Join(parts, ", ") + ")"
}

// Order returns the type order as defined in the paper: 0 for first-order
// values, 1 + max(order of params) for function types. Control-flow form
// permits only first-order params plus second-order return continuations.
func Order(t Type) int {
	switch t := t.(type) {
	case *FnType:
		max := 0
		for _, p := range t.Params {
			if o := Order(p); o > max {
				max = o
			}
		}
		return 1 + max
	case *TupleType:
		max := 0
		for _, e := range t.ElemTypes {
			if o := Order(e); o > max {
				max = o
			}
		}
		return max
	default:
		return 0
	}
}

// TupleType is an aggregate of heterogeneous components.
type TupleType struct {
	typeBase
	ElemTypes []Type
}

// Kind implements Type.
func (*TupleType) Kind() TypeKind { return TypeKindTuple }

// Elems implements Type.
func (t *TupleType) Elems() []Type { return t.ElemTypes }

func (t *TupleType) String() string {
	parts := make([]string, len(t.ElemTypes))
	for i, p := range t.ElemTypes {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// PtrType is a pointer to a pointee type.
type PtrType struct {
	typeBase
	Pointee Type
}

// Kind implements Type.
func (*PtrType) Kind() TypeKind { return TypeKindPtr }

// Elems implements Type.
func (t *PtrType) Elems() []Type { return []Type{t.Pointee} }

func (t *PtrType) String() string { return t.Pointee.String() + "*" }

// ArrayType is a definite-size array [n x T].
type ArrayType struct {
	typeBase
	Len  int64
	Elem Type
}

// Kind implements Type.
func (*ArrayType) Kind() TypeKind { return TypeKindArray }

// Elems implements Type.
func (t *ArrayType) Elems() []Type { return []Type{t.Elem} }

func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }

// IndefArrayType is an array of statically unknown length [T].
type IndefArrayType struct {
	typeBase
	Elem Type
}

// Kind implements Type.
func (*IndefArrayType) Kind() TypeKind { return TypeKindIndefArray }

// Elems implements Type.
func (t *IndefArrayType) Elems() []Type { return []Type{t.Elem} }

func (t *IndefArrayType) String() string { return "[" + t.Elem.String() + "]" }

// MemType is the type of the memory token that serializes side effects.
// Threading mem values through loads, stores and calls expresses effect
// order as ordinary data dependence, keeping the IR a pure graph.
type MemType struct{ typeBase }

// Kind implements Type.
func (*MemType) Kind() TypeKind { return TypeKindMem }

// Elems implements Type.
func (*MemType) Elems() []Type { return nil }

func (*MemType) String() string { return "mem" }

// FrameType is the type of a stack frame token produced by Enter.
type FrameType struct{ typeBase }

// Kind implements Type.
func (*FrameType) Kind() TypeKind { return TypeKindFrame }

// Elems implements Type.
func (*FrameType) Elems() []Type { return nil }

func (*FrameType) String() string { return "frame" }

// typeHashHeader starts the structural interning hash of a type: FNV-1a
// over the kind and scalar payload. Element types are folded in by ID (they
// are interned, so the ID fully identifies them). No string key is built —
// an intern hit allocates nothing.
func typeHashHeader(kind TypeKind, tag PrimTypeTag, n int64) uint64 {
	h := hashU64(fnvOffset64, uint64(kind))
	h = hashU64(h, uint64(tag))
	return hashU64(h, uint64(n))
}

// sameTypes reports element-wise pointer equality (types are interned, so
// pointer comparison is exact).
func sameTypes(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i, t := range a {
		if t != b[i] {
			return false
		}
	}
	return true
}

// typeTable interns types. A single mutex suffices: type construction is
// rare (the table stays small) compared to primop interning. Buckets are
// keyed by the structural hash; entries colliding on the hash are
// disambiguated by a structural check in each constructor.
type typeTable struct {
	mu  sync.Mutex
	m   map[uint64][]Type
	all []Type
}

func newTypeTable() *typeTable {
	return &typeTable{m: make(map[uint64][]Type)}
}

// add interns t under hash h, assigning its creation-order ID. The caller
// must hold tt.mu and have checked the bucket for a structural match.
func (tt *typeTable) add(h uint64, t Type) Type {
	t.setID(len(tt.all))
	tt.all = append(tt.all, t)
	tt.m[h] = append(tt.m[h], t)
	return t
}

// PrimType returns the interned primitive type for tag.
func (w *World) PrimType(tag PrimTypeTag) *PrimType {
	tt := w.types
	h := typeHashHeader(TypeKindPrim, tag, 0)
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if p, ok := t.(*PrimType); ok && p.Tag == tag {
			return p
		}
	}
	return tt.add(h, &PrimType{Tag: tag}).(*PrimType)
}

// BoolType returns the interned bool type.
func (w *World) BoolType() *PrimType { return w.PrimType(PrimBool) }

// FnType returns the interned function (continuation) type with the given
// parameter types.
func (w *World) FnType(params ...Type) *FnType {
	tt := w.types
	h := typeHashHeader(TypeKindFn, 0, int64(len(params)))
	for _, e := range params {
		h = hashU64(h, uint64(e.ID()))
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if f, ok := t.(*FnType); ok && sameTypes(f.Params, params) {
			return f
		}
	}
	return tt.add(h, &FnType{Params: append([]Type(nil), params...)}).(*FnType)
}

// TupleType returns the interned tuple type with the given element types.
func (w *World) TupleType(elems ...Type) *TupleType {
	tt := w.types
	h := typeHashHeader(TypeKindTuple, 0, int64(len(elems)))
	for _, e := range elems {
		h = hashU64(h, uint64(e.ID()))
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if tp, ok := t.(*TupleType); ok && sameTypes(tp.ElemTypes, elems) {
			return tp
		}
	}
	return tt.add(h, &TupleType{ElemTypes: append([]Type(nil), elems...)}).(*TupleType)
}

// UnitType returns the empty tuple type.
func (w *World) UnitType() *TupleType { return w.TupleType() }

// PtrType returns the interned pointer type to pointee.
func (w *World) PtrType(pointee Type) *PtrType {
	tt := w.types
	h := hashU64(typeHashHeader(TypeKindPtr, 0, 0), uint64(pointee.ID()))
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if p, ok := t.(*PtrType); ok && p.Pointee == pointee {
			return p
		}
	}
	return tt.add(h, &PtrType{Pointee: pointee}).(*PtrType)
}

// ArrayType returns the interned definite array type [n x elem].
func (w *World) ArrayType(n int64, elem Type) *ArrayType {
	tt := w.types
	h := hashU64(typeHashHeader(TypeKindArray, 0, n), uint64(elem.ID()))
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if a, ok := t.(*ArrayType); ok && a.Len == n && a.Elem == elem {
			return a
		}
	}
	return tt.add(h, &ArrayType{Len: n, Elem: elem}).(*ArrayType)
}

// IndefArrayType returns the interned indefinite array type [elem].
func (w *World) IndefArrayType(elem Type) *IndefArrayType {
	tt := w.types
	h := hashU64(typeHashHeader(TypeKindIndefArray, 0, 0), uint64(elem.ID()))
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if a, ok := t.(*IndefArrayType); ok && a.Elem == elem {
			return a
		}
	}
	return tt.add(h, &IndefArrayType{Elem: elem}).(*IndefArrayType)
}

// MemType returns the interned memory token type.
func (w *World) MemType() *MemType {
	tt := w.types
	h := typeHashHeader(TypeKindMem, 0, 0)
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if m, ok := t.(*MemType); ok {
			return m
		}
	}
	return tt.add(h, &MemType{}).(*MemType)
}

// FrameType returns the interned stack frame type.
func (w *World) FrameType() *FrameType {
	tt := w.types
	h := typeHashHeader(TypeKindFrame, 0, 0)
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, t := range tt.m[h] {
		if f, ok := t.(*FrameType); ok {
			return f
		}
	}
	return tt.add(h, &FrameType{}).(*FrameType)
}

// IsMemType reports whether t is the memory token type.
func IsMemType(t Type) bool { _, ok := t.(*MemType); return ok }

// IsRetContType reports whether t is shaped like a return continuation
// under the uniform CPS encoding: in that encoding, function *values* have
// even type order (they contain their own return continuation), while
// return continuations — which receive only values — have odd order. This
// resolves the ambiguity between "call f passing continuation k as the
// return continuation" and "jump to join point j passing a function value".
func IsRetContType(t Type) bool {
	ft, ok := t.(*FnType)
	return ok && Order(ft)%2 == 1
}

// ReturnsValue reports whether a continuation of type fn follows the
// returning-call convention: its final parameter is a return continuation.
func ReturnsValue(fn *FnType) bool {
	if len(fn.Params) == 0 {
		return false
	}
	return IsRetContType(fn.Params[len(fn.Params)-1])
}

// IsCFFType reports whether a continuation of this type is admissible in
// control-flow form: all parameters are first-order except that the last
// may be a return continuation whose parameters are all first-order.
func IsCFFType(fn *FnType) bool {
	n := len(fn.Params)
	for i, p := range fn.Params {
		o := Order(p)
		if o == 0 {
			continue
		}
		// Only the trailing return continuation may be higher-order, and it
		// must be at most second-order with first-order params.
		if i == n-1 && o == 1 {
			continue
		}
		return false
	}
	return true
}
