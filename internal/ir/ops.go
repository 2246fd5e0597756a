package ir

// OpKind identifies a primop operation.
type OpKind uint8

// Primop kinds. Operand shapes are documented per kind; `mem` denotes a
// value of MemType.
const (
	OpInvalid OpKind = iota

	// Arithmetic: (a, b) of identical prim type.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Comparison: (a, b) of identical prim type, result bool.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpSelect: (cond, a, b).
	OpSelect
	// OpTuple: (elems...).
	OpTuple
	// OpExtract: (agg, index).
	OpExtract
	// OpInsert: (agg, index, value).
	OpInsert
	// OpCast: (a) — numeric conversion to the primop's type.
	OpCast
	// OpBitcast: (a) — reinterpretation at identical bit width.
	OpBitcast

	// OpSlot: (mem) — allocates a stack slot; result (mem, ptr).
	OpSlot
	// OpAlloc: (mem, count) — allocates an array; result (mem, ptr).
	OpAlloc
	// OpLoad: (mem, ptr) — result (mem, value).
	OpLoad
	// OpStore: (mem, ptr, value) — result mem.
	OpStore
	// OpLea: (ptr, index) — address of an array element.
	OpLea
	// OpALen: (ptr) — runtime length of the pointed-to indefinite array.
	OpALen
	// OpGlobal: (init) — a mutable global cell; result ptr. Globals are not
	// hash-consed: two globals with equal initializers remain distinct.
	OpGlobal

	// OpClosure: (fn, env...) — a closure record pairing a lifted
	// continuation with its captured environment. Introduced by closure
	// conversion; the result type is the FnType of the closed function.
	OpClosure

	// OpRun / OpHlt: (def) — partial-evaluation control markers from the
	// paper's follow-on work; Run forces and Hlt blocks specialization.
	OpRun
	OpHlt
)

var opNames = map[OpKind]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpSelect: "select", OpTuple: "tuple", OpExtract: "extract",
	OpInsert: "insert", OpCast: "cast", OpBitcast: "bitcast",
	OpSlot: "slot", OpAlloc: "alloc", OpLoad: "load", OpStore: "store",
	OpLea: "lea", OpALen: "alen", OpGlobal: "global", OpClosure: "closure",
	OpRun: "run", OpHlt: "hlt",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return "op?"
}

// IsArith reports whether k is an arithmetic operation.
func (k OpKind) IsArith() bool { return k >= OpAdd && k <= OpShr }

// IsCmp reports whether k is a comparison.
func (k OpKind) IsCmp() bool { return k >= OpEq && k <= OpGe }

// IsCommutative reports whether k is commutative (used to canonicalize
// operand order for hash-consing).
func (k OpKind) IsCommutative() bool {
	switch k {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// HasMemEffect reports whether the primop consumes a memory token and thus
// participates in the effect chain.
func (k OpKind) HasMemEffect() bool {
	switch k {
	case OpSlot, OpAlloc, OpLoad, OpStore:
		return true
	}
	return false
}

// PrimOp is a pure primitive operation. PrimOps are immutable and
// hash-consed: constructing the same operation on the same operands twice
// yields the same node (global value numbering).
type PrimOp struct {
	defBase
	kind OpKind
	// salt distinguishes never-shared nodes (slots, allocs, globals) inside
	// the interning table; 0 for ordinary hash-consed primops. It is part of
	// the structural identity checked on hash collisions.
	salt int
	// next links the primops sharing one interning-table bucket.
	next *PrimOp
}

// OpKind returns the operation kind.
func (p *PrimOp) OpKind() OpKind { return p.kind }

func (p *PrimOp) String() string {
	if p.name != "" {
		return p.name
	}
	return p.kind.String()
}

// AsPrimOp returns d as a *PrimOp of kind k, or nil.
func AsPrimOp(d Def, k OpKind) *PrimOp {
	if p, ok := d.(*PrimOp); ok && p.kind == k {
		return p
	}
	return nil
}
