package wasm

import "slices"

// Register code. NewInstance translates each validated body once, in one
// linear pass, into a slice of rops. A call's frame is one run of slots
// in the instance's frame arena: the parameters, the declared locals,
// then one slot per operand-stack height. An rop names the slots it
// reads and writes, so the operand stack exists only at translation.
//
// The translator keeps an abstract operand stack. An operand pushed by
// local.get or a constant stays pending, a reference to the local's slot
// or the constant itself, and folds into the rop that consumes it; a
// local.set or local.tee folds into the rop that produced its value when
// that rop is the last one emitted. Two rules keep a pending operand
// correct: a pending read of local x is materialized into its own slot
// before anything writes x, and every operand is materialized at a label
// boundary (block, loop, if, else, end), so each label sees one layout
// whichever way control reaches it.
//
// Branch targets and the moves of a label's result are resolved here, so
// the runtime keeps no control stack. A forward branch is chained through
// its k until its label's end patches in the target.
//
// Fuel stays one unit per original instruction. An rop's x is one past
// the original instruction at which it can stop: a transfer, or the
// instruction that traps. A branch's k carries the original index at
// which execution resumes. A straight-line run from original index start
// to an rop that ends it costs x - start.

// rop is one register-code operation. a, b and c are frame slots, except
// that b is the offset of a load or store and the constant of a fused
// if's K form. k is an immediate: a constant, a global or function index,
// a type id or a packed branch target. x is the original instruction end
// described above.
type rop struct {
	op      uint8
	a, b, c uint32
	x       int32
	k       uint64
}

// Register opcodes. Comments give the operands; "k" forms take their
// right operand from k.
const (
	rCopy      = iota // c = a
	rConst            // c = k
	rGlobalGet        // c = globals[k]
	rGlobalSet        // globals[k] = a
	rI32Load          // c = mem[a+b]
	rI64Load          // c = mem[a+b]
	rI32Store         // mem[a+b] = c
	rI64Store         // mem[a+b] = c
	rI64StoreK        // mem[a+b] = k
	rMemSize          // c = pages
	rMemGrow          // c = grow(a)
	rSelect           // c = b != 0 ? a : slot k
	rSelectK          // c = b != 0 ? a : k

	// Unary: c = op(a).
	rI32Eqz
	rI64Eqz
	rWrap // i32.wrap_i64 and i64.extend_i32_u
	rExtendS
	rF64Abs
	rF64Neg
	rF64Sqrt
	rDemote
	rConvS
	rConvU
	rPromote

	// Binary: c = a op b.
	rI32Eq
	rI32Ne
	rI32Add
	rI32Sub
	rI32And
	rI32Or
	rI64Eq
	rI64Ne
	rI64LtS
	rI64LtU
	rI64GtS
	rI64GtU
	rI64LeS
	rI64LeU
	rI64GeS
	rI64GeU
	rI64Add
	rI64Sub
	rI64Mul
	rI64DivS
	rI64DivU
	rI64RemS
	rI64RemU
	rI64And
	rI64Or
	rI64Xor
	rI64Shl
	rI64ShrS
	rI64ShrU
	rF64Eq
	rF64Ne
	rF64Lt
	rF64Gt
	rF64Le
	rF64Ge
	rF64Add
	rF64Sub
	rF64Mul
	rF64Div

	// Binary with a constant: c = a op k.
	rI64EqK
	rI64NeK
	rI64LtSK
	rI64LtUK
	rI64GtSK
	rI64GtUK
	rI64LeSK
	rI64LeUK
	rI64GeSK
	rI64GeUK
	rI64AddK
	rI64SubK
	rI64MulK
	rI64AndK
	rI64OrK
	rI64XorK
	rI64ShlK
	rI64ShrSK
	rI64ShrUK

	// Control. A target in k packs the rop index (low half) and the
	// original index at which the run resumes (high half). A branch makes
	// one move, which may be of a slot onto itself; a return moves its
	// result, or any slot, to the caller's result slot.
	rBr   // c = b; goto k
	rBrIf // if a != 0: c = b; goto k
	rIf   // if a == 0: goto k

	// An if on the comparison the last rop made, for the comparisons an
	// if tests most often in the benchmark suite: if !(a op b): goto k.
	// A K form's constant fits in 32 bits and sits in b.
	rIfLtS
	rIfLtSK
	rIfEq
	rIfEqK
	rIfEqz // if a != 0: goto k
	rIfF64Gt
	rRet     // return b
	rRetIf   // if a != 0: return b
	rCall    // c = call function k on the frame at slot a
	rCallInd // c = call table[b], of type id k, on the frame at slot a
	rUnreachable
)

// unaryOps maps each wasm unary opcode to its rop.
var unaryOps = [256]uint8{
	OpI32Eqz: rI32Eqz, OpI64Eqz: rI64Eqz,
	OpI32WrapI64: rWrap, OpI64ExtendI32U: rWrap, OpI64ExtendI32S: rExtendS,
	OpF64Abs: rF64Abs, OpF64Neg: rF64Neg, OpF64Sqrt: rF64Sqrt,
	OpF32DemoteF64: rDemote, OpF64ConvertI64S: rConvS, OpF64ConvertI64U: rConvU,
	OpF64PromoteF32: rPromote,
}

// binaryOps maps each wasm binary opcode to its rop, and binaryKOps to
// the rop taking the right operand from k, where there is one.
var binaryOps = [256]uint8{
	OpI32Eq: rI32Eq, OpI32Ne: rI32Ne, OpI32Add: rI32Add, OpI32Sub: rI32Sub,
	OpI32And: rI32And, OpI32Or: rI32Or,
	OpI64Eq: rI64Eq, OpI64Ne: rI64Ne, OpI64LtS: rI64LtS, OpI64LtU: rI64LtU,
	OpI64GtS: rI64GtS, OpI64GtU: rI64GtU, OpI64LeS: rI64LeS, OpI64LeU: rI64LeU,
	OpI64GeS: rI64GeS, OpI64GeU: rI64GeU,
	OpI64Add: rI64Add, OpI64Sub: rI64Sub, OpI64Mul: rI64Mul,
	OpI64DivS: rI64DivS, OpI64DivU: rI64DivU, OpI64RemS: rI64RemS, OpI64RemU: rI64RemU,
	OpI64And: rI64And, OpI64Or: rI64Or, OpI64Xor: rI64Xor,
	OpI64Shl: rI64Shl, OpI64ShrS: rI64ShrS, OpI64ShrU: rI64ShrU,
	OpF64Eq: rF64Eq, OpF64Ne: rF64Ne, OpF64Lt: rF64Lt, OpF64Gt: rF64Gt,
	OpF64Le: rF64Le, OpF64Ge: rF64Ge,
	OpF64Add: rF64Add, OpF64Sub: rF64Sub, OpF64Mul: rF64Mul, OpF64Div: rF64Div,
}

var binaryKOps = [256]uint8{
	OpI64Eq: rI64EqK, OpI64Ne: rI64NeK, OpI64LtS: rI64LtSK, OpI64LtU: rI64LtUK,
	OpI64GtS: rI64GtSK, OpI64GtU: rI64GtUK, OpI64LeS: rI64LeSK, OpI64LeU: rI64LeUK,
	OpI64GeS: rI64GeSK, OpI64GeU: rI64GeUK,
	OpI64Add: rI64AddK, OpI64Sub: rI64SubK, OpI64Mul: rI64MulK,
	OpI64And: rI64AndK, OpI64Or: rI64OrK, OpI64Xor: rI64XorK,
	OpI64Shl: rI64ShlK, OpI64ShrS: rI64ShrSK, OpI64ShrU: rI64ShrUK,
}

// ifOps maps a comparison rop to the if that makes it, and ifKOps a
// comparison with a constant.
var ifOps = [256]uint8{rI64LtS: rIfLtS, rI64Eq: rIfEq, rI64Eqz: rIfEqz, rF64Gt: rIfF64Gt}

var ifKOps = [256]uint8{rI64LtSK: rIfLtSK, rI64EqK: rIfEqK}

// swapped gives, for an i64 opcode with a k form, the opcode that computes
// the same with its operands exchanged, so a constant left operand can
// move to k.
var swapped = [256]byte{
	OpI64Eq: OpI64Eq, OpI64Ne: OpI64Ne, OpI64Add: OpI64Add, OpI64Mul: OpI64Mul,
	OpI64And: OpI64And, OpI64Or: OpI64Or, OpI64Xor: OpI64Xor,
	OpI64LtS: OpI64GtS, OpI64GtS: OpI64LtS, OpI64LtU: OpI64GtU, OpI64GtU: OpI64LtU,
	OpI64LeS: OpI64GeS, OpI64GeS: OpI64LeS, OpI64LeU: OpI64GeU, OpI64GeU: OpI64LeU,
}

// target packs a branch target: rop index pc, resuming the count of
// original instructions at orig.
func target(pc, orig int) uint64 { return uint64(uint32(pc)) | uint64(orig)<<32 }

// noChain ends a label's chain of forward branches.
const noChain = -1

// operand is an abstract operand-stack entry: a constant, or the value
// in a slot, which is either its own height's slot or a pending local.
// def is the index of the rop that wrote the slot, or -1.
type operand struct {
	konst bool
	slot  uint32
	k     uint64
	def   int
}

// label is a translation-time control frame.
type label struct {
	op     byte // OpBlock, OpLoop, OpIf, OpElse, or OpEnd for the body
	height int  // operand height at entry; a result lands in that slot
	arity  int
	loop   uint64 // loop: the packed branch target of its start
	fix    int    // chain of forward branches to the end, or noChain
	jump   int    // if: its rIf; after else: the true arm's closing rBr; or -1
}

// translator turns one validated body at a time into register code. Its
// slices are reused from body to body.
type translator struct {
	m      *Module
	types  []int32 // canonical type id per type index
	code   []rop
	opds   []operand
	labels []label
	nl     int // params plus declared locals: the first operand slot
	maxH   int // deepest operand stack
	fence  int // rops before it precede a label boundary and stay as they are
	dead   int // >0: skipping unreachable code, at this nesting depth plus one
}

// translate returns the register code of function fi, whose validated
// instructions are code, and its frame size in slots.
func (t *translator) translate(fi int, code []instr) ([]rop, int) {
	f := &t.m.Funcs[fi]
	sig := t.m.Types[f.TypeIdx]
	if cap(t.code) < len(code) {
		// A body's register code is rarely longer than its instructions.
		t.code = make([]rop, 0, len(code))
	}
	t.code, t.opds, t.labels = t.code[:0], t.opds[:0], t.labels[:0]
	t.nl = len(sig.Params) + len(f.Locals)
	t.maxH, t.fence, t.dead = 0, 0, 0
	t.labels = append(t.labels, label{op: OpEnd, arity: len(sig.Results), fix: noChain, jump: -1})
	for pc := range code {
		t.step(pc, &code[pc])
	}
	// A branch or return always moves a slot, so every frame has one.
	return slices.Clone(t.code), max(t.nl+t.maxH, 1)
}

// emit appends o, ending at original index pc, and returns its index.
func (t *translator) emit(pc int, o rop) int {
	o.x = int32(pc + 1)
	t.code = append(t.code, o)
	return len(t.code) - 1
}

func (t *translator) push(o operand) {
	t.opds = append(t.opds, o)
	t.maxH = max(t.maxH, len(t.opds))
}

func (t *translator) pop() operand {
	o := t.opds[len(t.opds)-1]
	t.opds = t.opds[:len(t.opds)-1]
	return o
}

// slotAt is the slot of operand height h.
func (t *translator) slotAt(h int) uint32 { return uint32(t.nl + h) }

// result emits o, writing the slot of the operand it pushes.
func (t *translator) result(pc int, o rop) {
	o.c = t.slotAt(len(t.opds))
	t.push(operand{slot: o.c, def: t.emit(pc, o)})
}

// last reports whether o was written by the last rop emitted since the
// last label boundary, which may then write elsewhere instead.
func (t *translator) last(o operand) bool {
	return !o.konst && o.def >= t.fence && o.def == len(t.code)-1
}

// materialize moves the operand at height h into its own slot.
func (t *translator) materialize(pc, h int) {
	o := &t.opds[h]
	s := t.slotAt(h)
	switch {
	case o.konst:
		*o = operand{slot: s, def: t.emit(pc, rop{op: rConst, c: s, k: o.k})}
	case o.slot != s:
		*o = operand{slot: s, def: t.emit(pc, rop{op: rCopy, a: o.slot, c: s})}
	}
}

// flush materializes every operand: the layout at a label boundary.
func (t *translator) flush(pc int) {
	for h := range t.opds {
		t.materialize(pc, h)
	}
}

// slotOf returns a slot holding o, which was just popped from height
// len(t.opds), materializing a constant there.
func (t *translator) slotOf(pc int, o operand) uint32 {
	if !o.konst {
		return o.slot
	}
	s := t.slotAt(len(t.opds))
	t.emit(pc, rop{op: rConst, c: s, k: o.k})
	return s
}

// place puts o's value into slot s, retargeting the rop that wrote it
// when it is the last one.
func (t *translator) place(pc int, o operand, s uint32) {
	switch {
	case t.last(o):
		t.code[o.def].c = s
	case o.konst:
		t.emit(pc, rop{op: rConst, c: s, k: o.k})
	case o.slot != s:
		t.emit(pc, rop{op: rCopy, a: o.slot, c: s})
	}
}

// assign writes o's value to local x. Pending reads of x are
// materialized first; if there are none and o's rop was the last, that
// rop writes x directly. It reports whether it retargeted o's rop.
func (t *translator) assign(pc int, x uint32, o operand) bool {
	if !o.konst && o.slot == x {
		return false
	}
	hazard := false
	for h, p := range t.opds {
		if !p.konst && p.slot == x {
			t.materialize(pc, h)
			hazard = true
		}
	}
	if !hazard && t.last(o) {
		t.code[o.def].c = x
		return true
	}
	if o.konst {
		t.emit(pc, rop{op: rConst, c: x, k: o.k})
	} else {
		t.emit(pc, rop{op: rCopy, a: o.slot, c: x})
	}
	return false
}

// address returns the slot of a memory access's address o. An i32.wrap_i64
// emitted just before is dropped: the access reads only the low 32 bits.
func (t *translator) address(pc int, o operand) uint32 {
	if t.last(o) && t.code[o.def].op == rWrap {
		a := t.code[o.def].a
		t.code = t.code[:o.def]
		return a
	}
	return t.slotOf(pc, o)
}

// boundary starts a label's code: nothing before it may change.
func (t *translator) boundary() { t.fence = len(t.code) }

// ret emits a return of the top operand, if the body has a result, with
// condition slot cond when conditional.
func (t *translator) ret(pc int, cond uint32, conditional bool) {
	o := rop{op: rRet}
	if conditional {
		o = rop{op: rRetIf, a: cond}
	}
	if t.labels[0].arity > 0 {
		v := t.opds[len(t.opds)-1]
		switch {
		case !conditional && t.last(v):
			t.code[v.def].c = 0
		case v.konst:
			o.b = t.slotOf(pc, t.pop())
			t.push(operand{slot: o.b, def: -1})
		default:
			o.b = v.slot
		}
	}
	t.emit(pc, o)
}

// emitBranch emits a branch to label depth d, conditional on slot cond.
func (t *translator) emitBranch(pc int, d int, cond uint32, conditional bool) {
	if d == len(t.labels)-1 {
		t.ret(pc, cond, conditional)
		return
	}
	l := &t.labels[len(t.labels)-1-d]
	o := rop{op: rBrIf, a: cond}
	if l.op != OpLoop && l.arity > 0 {
		dst := t.slotAt(l.height)
		if !conditional {
			t.place(pc, t.opds[len(t.opds)-1], dst)
		} else {
			// The value stays on the stack if the branch is not taken.
			if t.opds[len(t.opds)-1].konst {
				t.materialize(pc, len(t.opds)-1)
			}
			o.b, o.c = t.opds[len(t.opds)-1].slot, dst
		}
	}
	if !conditional {
		o = t.jump(o)
	}
	if l.op == OpLoop {
		o.k = l.loop
		t.emit(pc, o)
		return
	}
	o.k = uint64(uint32(l.fix))
	l.fix = t.emit(pc, o)
}

// jump makes o an unconditional branch, folding into it the move of a
// copy emitted just before, which it removes.
func (t *translator) jump(o rop) rop {
	o.op = rBr
	if n := len(t.code) - 1; n >= t.fence && t.code[n].op == rCopy {
		o.b, o.c = t.code[n].a, t.code[n].c
		t.code = t.code[:n]
	}
	return o
}

// patch points label l's chain of forward branches at rop index at,
// resuming the original count at orig.
func (t *translator) patch(chain, at, orig int) {
	for i := chain; i != noChain; {
		next := int(int32(uint32(t.code[i].k)))
		t.code[i].k = target(at, orig)
		i = next
	}
}

// unreachable marks the rest of the innermost label unreachable.
func (t *translator) unreachable() { t.dead = 1 }

// step translates the instruction at original index pc.
func (t *translator) step(pc int, ins *instr) {
	if t.dead > 0 {
		switch ins.op {
		case OpBlock, OpLoop, OpIf:
			t.dead++
			return
		case OpElse:
			if t.dead > 1 {
				return
			}
		case OpEnd:
			if t.dead > 1 {
				t.dead--
				return
			}
		default:
			return
		}
	}
	switch ins.op {
	case OpNop:
	case OpUnreachable:
		t.emit(pc, rop{op: rUnreachable})
		t.unreachable()
	case OpBlock, OpLoop:
		t.flush(pc)
		t.boundary()
		l := label{op: ins.op, height: len(t.opds), arity: int(ins.imm), fix: noChain, jump: -1}
		if ins.op == OpLoop {
			l.loop = target(len(t.code), pc+1)
		}
		t.labels = append(t.labels, l)
	case OpIf:
		c := t.pop()
		o := rop{op: rIf, a: t.slotOf(pc, c)}
		t.flush(pc)
		if t.last(c) {
			cmp := t.code[c.def]
			switch {
			case ifOps[cmp.op] != 0:
				o = rop{op: ifOps[cmp.op], a: cmp.a, b: cmp.b}
				t.code = t.code[:c.def]
			case ifKOps[cmp.op] != 0 && int64(int32(cmp.k)) == int64(cmp.k):
				o = rop{op: ifKOps[cmp.op], a: cmp.a, b: uint32(cmp.k)}
				t.code = t.code[:c.def]
			}
		}
		jump := t.emit(pc, o)
		t.boundary()
		t.labels = append(t.labels, label{op: OpIf, height: len(t.opds), arity: int(ins.imm), fix: noChain, jump: jump})
	case OpElse:
		l := &t.labels[len(t.labels)-1]
		ifOp := l.jump
		l.jump = -1
		if t.dead == 0 {
			if l.arity > 0 {
				t.place(pc, t.opds[len(t.opds)-1], t.slotAt(l.height))
			}
			l.jump = t.emit(pc, t.jump(rop{}))
		}
		t.dead = 0
		t.code[ifOp].k = target(len(t.code), pc+1)
		l.op = OpElse
		t.opds = t.opds[:l.height]
		t.boundary()
	case OpEnd:
		t.end(pc)
	case OpBr:
		t.emitBranch(pc, int(ins.imm), 0, false)
		t.unreachable()
	case OpBrIf:
		cond := t.slotOf(pc, t.pop())
		t.emitBranch(pc, int(ins.imm), cond, true)
	case OpReturn:
		t.ret(pc, 0, false)
		t.unreachable()
	case OpCall, OpCallIndirect:
		o := rop{op: rCall, k: uint64(ins.imm)}
		var sig FuncType
		if ins.op == OpCall {
			sig, _ = t.m.TypeOfFunc(int(ins.imm))
		} else {
			sig = t.m.Types[ins.imm]
			o = rop{op: rCallInd, b: t.slotOf(pc, t.pop()), k: uint64(t.types[ins.imm])}
		}
		n := len(t.opds) - len(sig.Params)
		for h := n; h < len(t.opds); h++ {
			t.materialize(pc, h)
		}
		t.opds = t.opds[:n]
		o.a, o.c = t.slotAt(n), t.slotAt(n)
		def := t.emit(pc, o)
		for range sig.Results {
			t.push(operand{slot: o.a, def: def})
		}
	case OpDrop:
		t.pop()
	case OpSelect:
		h := len(t.opds) - 3
		for _, i := range []int{h, h + 2} {
			if t.opds[i].konst {
				t.materialize(pc, i)
			}
		}
		v1, v2, c := t.opds[h], t.opds[h+1], t.opds[h+2]
		t.opds = t.opds[:h]
		o := rop{op: rSelect, a: v1.slot, b: c.slot, k: uint64(v2.slot)}
		if v2.konst {
			o.op, o.k = rSelectK, v2.k
		}
		t.result(pc, o)
	case OpLocalGet:
		t.push(operand{slot: uint32(ins.imm), def: -1})
	case OpLocalSet:
		t.assign(pc, uint32(ins.imm), t.pop())
	case OpLocalTee:
		v := t.pop()
		if t.assign(pc, uint32(ins.imm), v) {
			v = operand{slot: uint32(ins.imm), def: -1}
		}
		t.push(v)
	case OpGlobalGet:
		t.result(pc, rop{op: rGlobalGet, k: uint64(ins.imm)})
	case OpGlobalSet:
		t.emit(pc, rop{op: rGlobalSet, a: t.slotOf(pc, t.pop()), k: uint64(ins.imm)})
	case OpI32Load, OpI64Load, OpF64Load:
		o := rop{op: rI64Load, b: uint32(ins.imm)}
		if ins.op == OpI32Load {
			o.op = rI32Load
		}
		o.a = t.address(pc, t.pop())
		t.result(pc, o)
	case OpI32Store, OpI64Store, OpF64Store:
		if ins.op == OpI32Store && t.opds[len(t.opds)-1].konst {
			t.materialize(pc, len(t.opds)-1)
		}
		v := t.pop()
		o := rop{op: rI64Store, a: t.address(pc, t.pop()), b: uint32(ins.imm), c: v.slot}
		switch {
		case ins.op == OpI32Store:
			o.op = rI32Store
		case v.konst:
			o.op, o.k = rI64StoreK, v.k
		}
		t.emit(pc, o)
	case OpMemSize:
		t.result(pc, rop{op: rMemSize})
	case OpMemGrow:
		t.result(pc, rop{op: rMemGrow, a: t.slotOf(pc, t.pop())})
	case OpI32Const:
		t.push(operand{konst: true, k: uint64(uint32(ins.imm)), def: -1})
	case OpI64Const, OpF64Const:
		t.push(operand{konst: true, k: uint64(ins.imm), def: -1})
	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		// The bits are the value: nothing to do.
	default:
		if r := unaryOps[ins.op]; r != 0 {
			t.result(pc, rop{op: r, a: t.slotOf(pc, t.pop())})
			return
		}
		t.binary(pc, ins.op)
	}
}

// binary translates a binary operator, folding a constant operand into
// k where the operator has a k form.
func (t *translator) binary(pc int, op byte) {
	b, a := t.opds[len(t.opds)-1], t.opds[len(t.opds)-2]
	if a.konst && !b.konst && binaryKOps[swapped[op]] != 0 {
		a, b, op = b, a, swapped[op]
	}
	h := len(t.opds) - 2
	if b.konst && binaryKOps[op] != 0 {
		t.opds = t.opds[:h]
		t.result(pc, rop{op: binaryKOps[op], a: t.slotOf(pc, a), k: b.k})
		return
	}
	for i := h; i < h+2; i++ {
		if t.opds[i].konst {
			t.materialize(pc, i)
		}
	}
	a, b = t.opds[h], t.opds[h+1]
	t.opds = t.opds[:h]
	t.result(pc, rop{op: binaryOps[op], a: a.slot, b: b.slot})
}

// end closes the innermost label at original index pc.
func (t *translator) end(pc int) {
	l := t.labels[len(t.labels)-1]
	live := t.dead == 0
	t.dead = 0
	if len(t.labels) == 1 {
		// The body's end returns.
		if live {
			t.ret(pc, 0, false)
		}
		t.labels = t.labels[:0]
		return
	}
	if live && l.arity > 0 {
		t.place(pc, t.opds[len(t.opds)-1], t.slotAt(l.height))
	}
	at := len(t.code)
	t.patch(l.fix, at, pc+1)
	switch {
	case l.op == OpIf:
		t.code[l.jump].k = target(at, pc+1)
	case l.op == OpElse && l.jump >= 0:
		// The true arm's jump lands on the end, which its run counts.
		t.code[l.jump].k = target(at, pc)
	}
	t.opds = t.opds[:l.height]
	for range l.arity {
		t.push(operand{slot: t.slotAt(len(t.opds)), def: -1})
	}
	t.labels = t.labels[:len(t.labels)-1]
	t.boundary()
}
