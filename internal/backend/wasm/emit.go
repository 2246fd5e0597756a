package wasmbackend

import (
	"fmt"
	"math"

	"thorin/internal/analysis"
	"thorin/internal/backend/lower"
	"thorin/internal/ir"
	"thorin/internal/wasm"
)

var arithI = map[ir.OpKind]byte{
	ir.OpAdd: wasm.OpI64Add, ir.OpSub: wasm.OpI64Sub, ir.OpMul: wasm.OpI64Mul,
	ir.OpAnd: wasm.OpI64And, ir.OpOr: wasm.OpI64Or, ir.OpXor: wasm.OpI64Xor,
	ir.OpShl: wasm.OpI64Shl, ir.OpShr: wasm.OpI64ShrS,
}

var arithF = map[ir.OpKind]byte{
	ir.OpAdd: wasm.OpF64Add, ir.OpSub: wasm.OpF64Sub, ir.OpMul: wasm.OpF64Mul,
	ir.OpDiv: wasm.OpF64Div,
}

var cmpI = map[ir.OpKind]byte{
	ir.OpEq: wasm.OpI64Eq, ir.OpNe: wasm.OpI64Ne, ir.OpLt: wasm.OpI64LtS,
	ir.OpLe: wasm.OpI64LeS, ir.OpGt: wasm.OpI64GtS, ir.OpGe: wasm.OpI64GeS,
}

var cmpF = map[ir.OpKind]byte{
	ir.OpEq: wasm.OpF64Eq, ir.OpNe: wasm.OpF64Ne, ir.OpLt: wasm.OpF64Lt,
	ir.OpLe: wasm.OpF64Le, ir.OpGt: wasm.OpF64Gt, ir.OpGe: wasm.OpF64Ge,
}

// label is one open structured-control frame during emission. A frame
// with n == nil is an if/else arm: it never matches a branch target but
// still shifts the relative depths of the labels beneath it.
type label struct {
	n *analysis.Node
}

// fnEmitter emits one function body. A value gets a typed local, set once
// where its primop is scheduled, unless the sink plan emits it as an
// expression tree at its single consumer; literals are inlined as const
// instructions at each use.
type fnEmitter struct {
	g  *generator
	f  *lower.Func
	st *lower.Structure

	sunk       map[*ir.PrimOp]bool
	locals     map[ir.Def]int
	localTypes []wasm.ValType
	nParams    int
	retT       []wasm.ValType

	code   []byte
	labels []label
}

func (g *generator) emitFunc(c *ir.Continuation) error {
	f, err := g.u.NewFunc(c)
	if err != nil {
		return err
	}
	rts, err := retTypes(c)
	if err != nil {
		return err
	}
	e := &fnEmitter{
		g:      g,
		f:      f,
		st:     lower.NewStructure(f),
		sunk:   map[*ir.PrimOp]bool{},
		locals: map[ir.Def]int{},
		retT:   rts,
	}
	if err := e.run(); err != nil {
		return err
	}
	idx, _ := g.u.FuncIndex(c)
	g.bodies[idx] = wasm.Func{
		Locals: e.localTypes[e.nParams:],
		Code:   append(e.code, wasm.OpEnd),
	}
	return nil
}

func (e *fnEmitter) run() error {
	// Function parameters are the leading locals.
	for _, p := range lower.ValParams(e.f.Entry, e.f.Entry.RetParam()) {
		e.newLocal(p)
	}
	e.nParams = len(e.localTypes)
	// Block parameters of every other node become ordinary locals,
	// assigned by the jumps that target the block.
	for _, n := range e.f.Nodes()[1:] {
		for _, p := range lower.ValParams(n.Cont, nil) {
			e.newLocal(p)
		}
	}
	e.planSinks()
	if err := e.emitTree(e.f.Nodes()[0]); err != nil {
		return err
	}
	// Every real path ended in return or br; the trailing unreachable
	// keeps the implicit function end well-typed after an if/else whose
	// arms both transferred away.
	e.op(wasm.OpUnreachable)
	return nil
}

// planSinks marks the primops that get no local: pure values that cannot
// trap, with exactly one use, by a primop emitted in the same block or by
// the block's terminator. Each is emitted where that consumer pushes it.
// Uses by primops and blocks this function never emits do not count.
func (e *fnEmitter) planSinks() {
	sched := e.f.Sched
	for _, b := range sched.Blocks {
		for _, p := range b.PrimOps {
			if !sinkable(p) {
				continue
			}
			var user ir.Def
			n := 0
			p.EachUse(func(u ir.Use) bool {
				switch ud := u.Def.(type) {
				case *ir.PrimOp:
					if sched.BlockOf(ud) == nil {
						return true
					}
				case *ir.Continuation:
					if sched.CFG.NodeOf(ud) == nil {
						return true
					}
				}
				user, n = u.Def, n+1
				return n < 2
			})
			if n != 1 {
				continue
			}
			switch ud := user.(type) {
			case *ir.PrimOp:
				e.sunk[p] = sched.BlockOf(ud) == b.Node && !transparent(ud)
			case *ir.Continuation:
				e.sunk[p] = ud == b.Node.Cont
			}
		}
	}
}

// valueOp reports whether p computes a plain value onto the stack
// (emitValue) that emitPrimOp then stores in p's local.
func valueOp(p *ir.PrimOp) bool {
	switch k := p.OpKind(); {
	case k.IsArith(), k.IsCmp():
		return true
	case k == ir.OpExtract:
		return !transparent(p)
	default:
		return k == ir.OpSelect || k == ir.OpCast || k == ir.OpLea ||
			k == ir.OpALen || k == ir.OpGlobal
	}
}

// sinkable reports whether p may be emitted at its consumer instead of its
// schedule position: every value op but integer div/rem, which trap.
// Loads, stores and allocations are no value ops, so trap and print order
// stay as scheduled.
func sinkable(p *ir.PrimOp) bool {
	if k := p.OpKind(); k == ir.OpDiv || k == ir.OpRem {
		return p.Type().(*ir.PrimType).Tag.IsFloat()
	}
	return valueOp(p)
}

// transparent reports whether push resolves p through its operand rather
// than a local: extracts of effect results, bitcast, run and hlt.
func transparent(p *ir.PrimOp) bool {
	switch p.OpKind() {
	case ir.OpExtract:
		src, ok := p.Op(0).(*ir.PrimOp)
		return ok && src.OpKind().HasMemEffect()
	case ir.OpBitcast, ir.OpRun, ir.OpHlt:
		return true
	}
	return false
}

// --- byte emission ---------------------------------------------------

func (e *fnEmitter) op(b ...byte)     { e.code = append(e.code, b...) }
func (e *fnEmitter) uleb(v int)       { e.code = wasm.AppendUleb(e.code, uint64(v)) }
func (e *fnEmitter) i64const(v int64) { e.op(wasm.OpI64Const); e.code = wasm.AppendSleb(e.code, v) }
func (e *fnEmitter) i32const(v int64) { e.op(wasm.OpI32Const); e.code = wasm.AppendSleb(e.code, v) }

func (e *fnEmitter) f64const(v float64) {
	e.op(wasm.OpF64Const)
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		e.code = append(e.code, byte(bits>>(8*i)))
	}
}

func (e *fnEmitter) zeroConst(t wasm.ValType) {
	if t == wasm.F64 {
		e.f64const(0)
	} else {
		e.i64const(0)
	}
}

func (e *fnEmitter) load(t wasm.ValType, offset int) { e.code = appendLoad(e.code, t, uint64(offset)) }
func (e *fnEmitter) store(t wasm.ValType, offset int) {
	e.code = appendStore(e.code, t, uint64(offset))
}

func (e *fnEmitter) call(idx int) { e.op(wasm.OpCall); e.uleb(idx) }

// boolResult widens the i32 a comparison leaves on the stack to the i64
// the value representation uses.
func (e *fnEmitter) boolResult() { e.op(wasm.OpI64ExtendI32U) }

// wrap narrows an i64 on the stack to the i32 wasm wants for memory
// addresses and branch conditions.
func (e *fnEmitter) wrap() { e.op(wasm.OpI32WrapI64) }

// --- values ----------------------------------------------------------

// newLocal returns d's local index, allocating a typed slot on first use.
// An effect primop (load, alloc) is typed (mem, T) but its local holds
// only the value payload — the mem half is erased — so the slot takes the
// payload's type, not the tuple's.
func (e *fnEmitter) newLocal(d ir.Def) int {
	if l, ok := e.locals[d]; ok {
		return l
	}
	t := d.Type()
	if tt, ok := t.(*ir.TupleType); ok && len(tt.ElemTypes) == 2 && ir.IsMemType(tt.ElemTypes[0]) {
		t = tt.ElemTypes[1]
	}
	l := len(e.localTypes)
	e.locals[d] = l
	e.localTypes = append(e.localTypes, valTypeOf(t))
	return l
}

// setLocal stores the value on top of the stack as d's result.
func (e *fnEmitter) setLocal(d ir.Def) {
	e.op(wasm.OpLocalSet)
	e.uleb(e.newLocal(d))
}

// push materializes d onto the stack: a local read for params and
// scheduled primops, the whole expression tree for a sunk primop, an
// inline const for literals, and transparent resolution for the alias
// primops (extracts of effect results, bitcast, run/hlt) exactly as in
// the VM's regOf.
func (e *fnEmitter) push(d ir.Def) error {
	if l, ok := e.locals[d]; ok {
		e.op(wasm.OpLocalGet)
		e.uleb(l)
		return nil
	}
	switch d := d.(type) {
	case *ir.Literal:
		if valTypeOf(d.Type()) == wasm.F64 {
			e.f64const(d.F)
		} else {
			e.i64const(d.I)
		}
		return nil
	case *ir.Param:
		return fmt.Errorf("%s: param %s of %s has no local (unscoped use?)",
			e.f.Entry.Name(), d, d.Cont().Name())
	case *ir.PrimOp:
		if e.sunk[d] {
			return e.emitValue(d)
		}
		switch d.OpKind() {
		case ir.OpExtract:
			if src, ok := d.Op(0).(*ir.PrimOp); ok && src.OpKind().HasMemEffect() {
				if idx, _ := ir.LitValue(d.Op(1)); idx == 1 {
					return e.push(src)
				}
			}
		case ir.OpRun, ir.OpHlt:
			return e.push(d.Op(0))
		case ir.OpBitcast:
			if err := e.push(d.Op(0)); err != nil {
				return err
			}
			from, to := valTypeOf(d.Op(0).Type()), valTypeOf(d.Type())
			if from != to {
				if to == wasm.F64 {
					e.op(wasm.OpF64ReinterpretI64)
				} else {
					e.op(wasm.OpI64ReinterpretF64)
				}
			}
			return nil
		}
		return fmt.Errorf("%s: primop %s has no local (not scheduled?)",
			e.f.Entry.Name(), d.OpKind())
	case *ir.Continuation:
		return fmt.Errorf("%s: continuation %s used as value; run closure conversion first",
			e.f.Entry.Name(), d.Name())
	}
	return fmt.Errorf("%s: cannot materialize %v", e.f.Entry.Name(), d)
}

// pushCond pushes d as the i32 truth value if and select consume. A sunk
// comparison leaves its i32 result as is; any other value is an i64
// wrapped down.
func (e *fnEmitter) pushCond(d ir.Def) error {
	if p, ok := d.(*ir.PrimOp); ok && e.sunk[p] && p.OpKind().IsCmp() {
		return e.compare(p)
	}
	if err := e.push(d); err != nil {
		return err
	}
	e.wrap()
	return nil
}

func (e *fnEmitter) pushAll(args []ir.Def) error {
	for _, a := range args {
		if err := e.push(a); err != nil {
			return err
		}
	}
	return nil
}

// --- structured emission ---------------------------------------------

// emitTree emits n and everything it dominates, wrapping loop headers in
// their loop frame so back edges have a label to branch to.
func (e *fnEmitter) emitTree(n *analysis.Node) error {
	if e.st.IsLoopHeader(n) {
		e.labels = append(e.labels, label{n: n})
		e.op(wasm.OpLoop, wasm.BlockEmpty)
		if err := e.emitWithin(n); err != nil {
			return err
		}
		e.op(wasm.OpEnd)
		e.labels = e.labels[:len(e.labels)-1]
		return nil
	}
	return e.emitWithin(n)
}

// emitWithin nests n's merge children in blocks — the last child (highest
// reverse-postorder index) gets the outermost block — then emits n's own
// code innermost, so every forward branch out of the subtree finds its
// target label still open.
func (e *fnEmitter) emitWithin(n *analysis.Node) error {
	return e.emitBlocks(n, e.st.MergeChildren(n))
}

func (e *fnEmitter) emitBlocks(n *analysis.Node, ms []*analysis.Node) error {
	if len(ms) == 0 {
		return e.emitCode(n)
	}
	last := ms[len(ms)-1]
	e.labels = append(e.labels, label{n: last})
	e.op(wasm.OpBlock, wasm.BlockEmpty)
	if err := e.emitBlocks(n, ms[:len(ms)-1]); err != nil {
		return err
	}
	e.op(wasm.OpEnd)
	e.labels = e.labels[:len(e.labels)-1]
	return e.emitTree(last)
}

// emitCode emits n's scheduled primops and its terminator.
func (e *fnEmitter) emitCode(n *analysis.Node) error {
	for _, p := range e.f.Sched.Blocks[n.Index].PrimOps {
		if err := e.emitPrimOp(p); err != nil {
			return fmt.Errorf("%s (in %s)", err, n.Cont.Name())
		}
	}
	if err := e.emitTerminator(n); err != nil {
		return fmt.Errorf("%s (in %s)", err, n.Cont.Name())
	}
	return nil
}

// transfer moves control from src to target: a br to an open label
// (block exit or loop continue), or inline emission when target belongs
// only to src. Anything else is irreducible control flow.
func (e *fnEmitter) transfer(src, target *analysis.Node) error {
	for i := len(e.labels) - 1; i >= 0; i-- {
		if e.labels[i].n == target {
			e.op(wasm.OpBr)
			e.uleb(len(e.labels) - 1 - i)
			return nil
		}
	}
	if e.st.Inlinable(src, target) {
		return e.emitTree(target)
	}
	return fmt.Errorf("irreducible control flow: no open label for %s", target.Cont.Name())
}

// --- primops ---------------------------------------------------------

func (e *fnEmitter) emitPrimOp(p *ir.PrimOp) error {
	if e.sunk[p] || transparent(p) {
		return nil // push materializes it at its uses
	}
	if valueOp(p) {
		if err := e.emitValue(p); err != nil {
			return err
		}
		e.setLocal(p)
		return nil
	}
	switch p.OpKind() {
	case ir.OpTuple:
		args := lower.ValArgs(p.Ops())
		a := e.newLocal(p)
		e.i64const(int64(8 * len(args)))
		e.call(hlpAlloc)
		e.op(wasm.OpLocalSet)
		e.uleb(a)
		for i, arg := range args {
			e.op(wasm.OpLocalGet)
			e.uleb(a)
			e.wrap()
			if err := e.push(arg); err != nil {
				return err
			}
			e.store(valTypeOf(arg.Type()), 8*i)
		}
		return nil

	case ir.OpInsert:
		idx, ok := ir.LitValue(p.Op(1))
		if !ok {
			return fmt.Errorf("insert with dynamic index")
		}
		tt, ok := p.Type().(*ir.TupleType)
		if !ok {
			return fmt.Errorf("insert into non-tuple %s", p.Type())
		}
		a := e.newLocal(p)
		e.i64const(int64(8 * len(tt.ElemTypes)))
		e.call(hlpAlloc)
		e.op(wasm.OpLocalSet)
		e.uleb(a)
		for i, et := range tt.ElemTypes {
			vt := valTypeOf(et)
			e.op(wasm.OpLocalGet)
			e.uleb(a)
			e.wrap()
			if int64(i) == idx {
				if err := e.push(p.Op(2)); err != nil {
					return err
				}
			} else {
				if err := e.push(p.Op(0)); err != nil {
					return err
				}
				e.wrap()
				e.load(vt, 8*i)
			}
			e.store(vt, 8*i)
		}
		return nil

	case ir.OpSlot:
		e.i64const(8)
		e.call(hlpAlloc)
		e.setLocal(p)
		return nil

	case ir.OpAlloc:
		if err := e.push(p.Op(1)); err != nil {
			return err
		}
		e.call(hlpArrayNew)
		e.setLocal(p)
		return nil

	case ir.OpLoad:
		tt, ok := p.Type().(*ir.TupleType)
		if !ok || len(tt.ElemTypes) != 2 {
			return fmt.Errorf("load with unexpected type %s", p.Type())
		}
		if err := e.push(p.Op(1)); err != nil {
			return err
		}
		e.wrap()
		e.load(valTypeOf(tt.ElemTypes[1]), 0)
		e.setLocal(p)
		return nil

	case ir.OpStore:
		if err := e.push(p.Op(1)); err != nil {
			return err
		}
		e.wrap()
		if err := e.push(p.Op(2)); err != nil {
			return err
		}
		e.store(valTypeOf(p.Op(2).Type()), 0)
		return nil

	case ir.OpClosure:
		code, ok := p.Op(0).(*ir.Continuation)
		if !ok {
			return fmt.Errorf("closure code is not a continuation")
		}
		env := lower.ValArgs(p.Ops()[1:])
		ti, err := e.g.wrapperIndex(code, len(env))
		if err != nil {
			return err
		}
		a := e.newLocal(p)
		e.i64const(int64(8 * (1 + len(env))))
		e.call(hlpAlloc)
		e.op(wasm.OpLocalSet)
		e.uleb(a)
		e.op(wasm.OpLocalGet)
		e.uleb(a)
		e.wrap()
		e.i64const(int64(ti))
		e.store(wasm.I64, 0)
		for i, arg := range env {
			e.op(wasm.OpLocalGet)
			e.uleb(a)
			e.wrap()
			if err := e.push(arg); err != nil {
				return err
			}
			e.store(valTypeOf(arg.Type()), 8+8*i)
		}
		return nil
	}
	return fmt.Errorf("cannot emit primop %s", p.OpKind())
}

// emitValue pushes the value of a value op (see valueOp): at its schedule
// position for a local, or at its consumer when sunk.
func (e *fnEmitter) emitValue(p *ir.PrimOp) error {
	k := p.OpKind()
	switch {
	case k.IsArith():
		if err := e.pushAll(p.Ops()); err != nil {
			return err
		}
		if pt := p.Type().(*ir.PrimType); pt.Tag.IsFloat() {
			switch k {
			case ir.OpRem:
				e.call(impFmod)
			default:
				op, ok := arithF[k]
				if !ok {
					return fmt.Errorf("no instruction for %s at %s", k, p.Type())
				}
				e.op(op)
			}
		} else {
			switch k {
			case ir.OpDiv:
				e.call(hlpDivI)
			case ir.OpRem:
				e.call(hlpRemI)
			default:
				op, ok := arithI[k]
				if !ok {
					return fmt.Errorf("no instruction for %s at %s", k, p.Type())
				}
				e.op(op)
			}
		}
		return nil

	case k.IsCmp():
		if err := e.compare(p); err != nil {
			return err
		}
		e.boolResult()
		return nil
	}

	switch k {
	case ir.OpSelect:
		if err := e.push(p.Op(1)); err != nil {
			return err
		}
		if err := e.push(p.Op(2)); err != nil {
			return err
		}
		if err := e.pushCond(p.Op(0)); err != nil {
			return err
		}
		e.op(wasm.OpSelect)
		return nil

	case ir.OpCast:
		src := p.Op(0).Type().(*ir.PrimType).Tag
		dst := p.Type().(*ir.PrimType).Tag
		if err := e.push(p.Op(0)); err != nil {
			return err
		}
		switch {
		case src.IsFloat() && dst.IsFloat():
			if dst.Bits() == 32 {
				e.op(wasm.OpF32DemoteF64, wasm.OpF64PromoteF32)
			}
		case src.IsFloat():
			e.call(impF2I)
		case dst.IsFloat():
			e.op(wasm.OpF64ConvertI64S)
		default:
			switch bits := dst.Bits(); bits {
			case 1:
				e.i64const(0)
				e.op(wasm.OpI64Ne)
				e.boolResult()
			case 8, 16, 32:
				e.i64const(int64(64 - bits))
				e.op(wasm.OpI64Shl)
				e.i64const(int64(64 - bits))
				e.op(wasm.OpI64ShrS)
			}
		}
		return nil

	case ir.OpExtract:
		idx, ok := ir.LitValue(p.Op(1))
		if !ok {
			return fmt.Errorf("extract with dynamic index")
		}
		if idx < 0 {
			return fmt.Errorf("extract with negative index %d", idx)
		}
		if err := e.push(p.Op(0)); err != nil {
			return err
		}
		e.wrap()
		e.load(valTypeOf(p.Type()), int(8*idx))
		return nil

	case ir.OpLea:
		if err := e.pushAll(p.Ops()); err != nil {
			return err
		}
		e.call(hlpLea)
		return nil

	case ir.OpALen:
		if err := e.push(p.Op(0)); err != nil {
			return err
		}
		e.wrap()
		e.load(wasm.I64, 0)
		return nil

	case ir.OpGlobal:
		addr, err := e.g.globalAddr(p)
		if err != nil {
			return err
		}
		e.i64const(addr)
		return nil
	}
	return fmt.Errorf("cannot emit value %s", k)
}

// compare pushes the i32 result of comparison p.
func (e *fnEmitter) compare(p *ir.PrimOp) error {
	if err := e.pushAll(p.Ops()); err != nil {
		return err
	}
	table := cmpI
	if pt, ok := p.Op(0).Type().(*ir.PrimType); ok && pt.Tag.IsFloat() {
		table = cmpF
	}
	e.op(table[p.OpKind()])
	return nil
}

// --- terminators -----------------------------------------------------

func (e *fnEmitter) emitTerminator(n *analysis.Node) error {
	t, err := e.f.Terminator(n.Cont)
	if err != nil {
		return err
	}
	switch t.Kind {
	case lower.TermBranch:
		if err := e.pushCond(t.Cond); err != nil {
			return err
		}
		e.op(wasm.OpIf, wasm.BlockEmpty)
		e.labels = append(e.labels, label{})
		if err := e.transfer(n, t.True); err != nil {
			return err
		}
		e.op(wasm.OpElse)
		if err := e.transfer(n, t.False); err != nil {
			return err
		}
		e.op(wasm.OpEnd)
		e.labels = e.labels[:len(e.labels)-1]
		return nil

	case lower.TermPrint:
		if err := e.push(t.Val); err != nil {
			return err
		}
		imp := impPrintI64
		switch t.Print {
		case ir.IntrinsicPrintF64:
			imp = impPrintF64
		case ir.IntrinsicPrintChar:
			imp = impPrintChar
		}
		e.call(imp)
		if t.Next != nil {
			return e.transfer(n, t.Next)
		}
		return e.emitRet(nil)

	case lower.TermGoto:
		args := lower.ValArgs(t.Args)
		params := lower.ValParams(t.Target.Cont, nil)
		if len(args) != len(params) {
			return fmt.Errorf("goto %s: %d args for %d params",
				t.Target.Cont.Name(), len(args), len(params))
		}
		if err := e.pushAll(args); err != nil {
			return err
		}
		// Set in reverse so a permutation of the target's own params
		// reads the old values off the stack before overwriting.
		for i := len(params) - 1; i >= 0; i-- {
			e.op(wasm.OpLocalSet)
			e.uleb(e.newLocal(params[i]))
		}
		return e.transfer(n, t.Target)

	case lower.TermRet:
		return e.emitRet(lower.ValArgs(t.Args))

	case lower.TermCall:
		return e.emitCall(n, t)
	}
	return fmt.Errorf("unclassified terminator")
}

// emitRet spills results beyond the first to the return-spill area and
// returns the primary through the wasm result.
func (e *fnEmitter) emitRet(vals []ir.Def) error {
	if len(vals) > len(e.retT) {
		return fmt.Errorf("return with %d values for %d declared results", len(vals), len(e.retT))
	}
	for i := 1; i < len(e.retT); i++ {
		e.i32const(int64(retSpillBase + 8*(i-1)))
		if i < len(vals) {
			if err := e.push(vals[i]); err != nil {
				return err
			}
		} else {
			e.zeroConst(e.retT[i])
		}
		e.store(e.retT[i], 0)
	}
	if len(e.retT) > 0 {
		if len(vals) > 0 {
			if err := e.push(vals[0]); err != nil {
				return err
			}
		} else {
			e.zeroConst(e.retT[0])
		}
	}
	e.op(wasm.OpReturn)
	return nil
}

func (e *fnEmitter) emitCall(n *analysis.Node, t *lower.Terminator) error {
	vals := lower.ValArgs(t.CallArgs)

	var rts []wasm.ValType
	var retParams []*ir.Param
	if t.Tail {
		rts = e.retT
	} else {
		retParams = lower.ValParams(t.RetCont, nil)
		for _, p := range retParams {
			rts = append(rts, valTypeOf(p.Type()))
		}
		if len(rts) > maxResults {
			return fmt.Errorf("call returning %d values exceeds the wasm backend's limit of %d",
				len(rts), maxResults)
		}
	}

	if t.Direct != nil {
		if err := e.pushAll(vals); err != nil {
			return err
		}
		e.call(e.g.declareFunc(t.Direct))
	} else {
		// The closure travels as the hidden first argument; its table
		// index (cell 0 of the record) selects the wrapper.
		if err := e.push(t.Callee); err != nil {
			return err
		}
		if err := e.pushAll(vals); err != nil {
			return err
		}
		if err := e.push(t.Callee); err != nil {
			return err
		}
		e.wrap()
		e.load(wasm.I64, 0)
		e.wrap()
		var ft wasm.FuncType
		ft.Params = append(ft.Params, wasm.I64)
		for _, a := range vals {
			ft.Params = append(ft.Params, valTypeOf(a.Type()))
		}
		if len(rts) > 0 {
			ft.Results = []wasm.ValType{rts[0]}
		}
		e.op(wasm.OpCallIndirect)
		e.uleb(e.g.mod.AddType(ft))
		e.op(0) // table index
	}

	if t.Tail {
		// The callee wrote the same spill slots this function's caller
		// will read; forward the primary result as-is.
		e.op(wasm.OpReturn)
		return nil
	}
	if len(rts) > 0 {
		e.op(wasm.OpLocalSet)
		e.uleb(e.newLocal(retParams[0]))
	}
	for i := 1; i < len(rts); i++ {
		e.i32const(int64(retSpillBase + 8*(i-1)))
		e.load(rts[i], 0)
		e.op(wasm.OpLocalSet)
		e.uleb(e.newLocal(retParams[i]))
	}
	return e.transfer(n, t.RetNode)
}
