package vmbackend

import (
	"fmt"

	"thorin/internal/backend/lower"
	"thorin/internal/ir"
	"thorin/internal/vm"
)

var arithOpI = map[ir.OpKind]vm.Opcode{
	ir.OpAdd: vm.OpAddI, ir.OpSub: vm.OpSubI, ir.OpMul: vm.OpMulI,
	ir.OpDiv: vm.OpDivI, ir.OpRem: vm.OpRemI, ir.OpAnd: vm.OpAndI,
	ir.OpOr: vm.OpOrI, ir.OpXor: vm.OpXorI, ir.OpShl: vm.OpShlI,
	ir.OpShr: vm.OpShrI,
}

var arithOpF = map[ir.OpKind]vm.Opcode{
	ir.OpAdd: vm.OpAddF, ir.OpSub: vm.OpSubF, ir.OpMul: vm.OpMulF,
	ir.OpDiv: vm.OpDivF, ir.OpRem: vm.OpRemF,
}

var cmpOpI = map[ir.OpKind]vm.Opcode{
	ir.OpEq: vm.OpEqI, ir.OpNe: vm.OpNeI, ir.OpLt: vm.OpLtI,
	ir.OpLe: vm.OpLeI, ir.OpGt: vm.OpGtI, ir.OpGe: vm.OpGeI,
}

var cmpOpF = map[ir.OpKind]vm.Opcode{
	ir.OpEq: vm.OpEqF, ir.OpNe: vm.OpNeF, ir.OpLt: vm.OpLtF,
	ir.OpLe: vm.OpLeF, ir.OpGt: vm.OpGtF, ir.OpGe: vm.OpGeF,
}

// emitPrimOp lowers one scheduled primop to instructions, assigning its
// result register.
func (e *fnEmitter) emitPrimOp(p *ir.PrimOp) ([]vm.Instr, error) {
	k := p.OpKind()
	switch {
	case k.IsArith():
		b, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		c, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		table := arithOpI
		if pt := p.Type().(*ir.PrimType); pt.Tag.IsFloat() {
			table = arithOpF
		}
		op, ok := table[k]
		if !ok {
			return nil, fmt.Errorf("no instruction for %s at %s", k, p.Type())
		}
		return []vm.Instr{{Op: op, A: a, B: b, C: c}}, nil

	case k.IsCmp():
		b, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		c, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		table := cmpOpI
		if pt, ok := p.Op(0).Type().(*ir.PrimType); ok && pt.Tag.IsFloat() {
			table = cmpOpF
		}
		return []vm.Instr{{Op: table[k], A: a, B: b, C: c}}, nil
	}

	switch k {
	case ir.OpSelect:
		cond, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		tv, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		fv, err := e.regOf(p.Op(2))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpSelect, A: a, B: cond, C: tv, Imm: int64(fv)}}, nil

	case ir.OpCast:
		src := p.Op(0).Type().(*ir.PrimType).Tag
		dst := p.Type().(*ir.PrimType).Tag
		b, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		switch {
		case src.IsFloat() && dst.IsFloat():
			return []vm.Instr{{Op: vm.OpCastFF, A: a, B: b, Imm: int64(dst.Bits())}}, nil
		case src.IsFloat():
			return []vm.Instr{{Op: vm.OpCastFI, A: a, B: b}}, nil
		case dst.IsFloat():
			return []vm.Instr{{Op: vm.OpCastIF, A: a, B: b}}, nil
		default:
			return []vm.Instr{{Op: vm.OpCastII, A: a, B: b, Imm: int64(dst.Bits())}}, nil
		}

	case ir.OpBitcast, ir.OpRun, ir.OpHlt:
		_, err := e.regOf(p) // establishes the alias
		return nil, err

	case ir.OpTuple:
		args, err := e.valArgs(p.Ops())
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpTupleNew, A: a, Args: args}}, nil

	case ir.OpExtract:
		if src, ok := p.Op(0).(*ir.PrimOp); ok && src.OpKind().HasMemEffect() {
			if !lower.IsVal(p) {
				return nil, nil // mem projection: erased
			}
			_, err := e.regOf(p) // aliases the effect op's result register
			return nil, err
		}
		idx, ok := ir.LitValue(p.Op(1))
		if !ok {
			return nil, fmt.Errorf("extract with dynamic index")
		}
		b, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpTupleGet, A: a, B: b, Imm: idx}}, nil

	case ir.OpInsert:
		idx, ok := ir.LitValue(p.Op(1))
		if !ok {
			return nil, fmt.Errorf("insert with dynamic index")
		}
		b, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		c, err := e.regOf(p.Op(2))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpTupleSet, A: a, B: b, C: c, Imm: idx}}, nil

	case ir.OpSlot:
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpSlotNew, A: a}}, nil

	case ir.OpAlloc:
		n, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpArrayNew, A: a, B: n}}, nil

	case ir.OpLoad:
		ptr, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpPtrLoad, A: a, B: ptr}}, nil

	case ir.OpStore:
		ptr, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		v, err := e.regOf(p.Op(2))
		if err != nil {
			return nil, err
		}
		return []vm.Instr{{Op: vm.OpPtrStore, A: ptr, B: v}}, nil

	case ir.OpLea:
		arr, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		idx, err := e.regOf(p.Op(1))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpLea, A: a, B: arr, C: idx}}, nil

	case ir.OpALen:
		arr, err := e.regOf(p.Op(0))
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpArrayLen, A: a, B: arr}}, nil

	case ir.OpGlobal:
		gi, err := e.g.globalIdx(p)
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpGlobalPtr, A: a, Imm: int64(gi)}}, nil

	case ir.OpClosure:
		code, ok := p.Op(0).(*ir.Continuation)
		if !ok {
			return nil, fmt.Errorf("closure code is not a continuation")
		}
		fnIdx := e.g.declare(code)
		env, err := e.valArgs(p.Ops()[1:])
		if err != nil {
			return nil, err
		}
		a := e.newReg()
		e.regs[p] = a
		return []vm.Instr{{Op: vm.OpClosureNew, A: a, Imm: int64(fnIdx), Args: env}}, nil
	}
	return nil, fmt.Errorf("cannot emit primop %s", k)
}

// emitTerminator lowers the classified terminator of block c into
// control-transfer instructions.
func (e *fnEmitter) emitTerminator(c *ir.Continuation) ([]vm.Instr, error) {
	t, err := e.f.Terminator(c)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case lower.TermBranch:
		cond, err := e.regOf(t.Cond)
		if err != nil {
			return nil, err
		}
		return []vm.Instr{{Op: vm.OpBr, A: cond, B: t.True.Index, C: t.False.Index}}, nil

	case lower.TermPrint:
		v, err := e.regOf(t.Val)
		if err != nil {
			return nil, err
		}
		op := vm.OpPrintI64
		switch t.Print {
		case ir.IntrinsicPrintF64:
			op = vm.OpPrintF64
		case ir.IntrinsicPrintChar:
			op = vm.OpPrintChar
		}
		ins := []vm.Instr{{Op: op, A: v}}
		if t.Next != nil {
			ins = append(ins, vm.Instr{Op: vm.OpJmp, Imm: int64(t.Next.Index)})
		} else {
			ins = append(ins, vm.Instr{Op: vm.OpRet})
		}
		return ins, nil

	case lower.TermGoto:
		args, err := e.valArgs(t.Args)
		if err != nil {
			return nil, err
		}
		return []vm.Instr{{Op: vm.OpJmp, Imm: int64(t.Target.Index), Args: args}}, nil

	case lower.TermRet:
		args, err := e.valArgs(t.Args)
		if err != nil {
			return nil, err
		}
		return []vm.Instr{{Op: vm.OpRet, Args: args}}, nil

	case lower.TermCall:
		args, err := e.valArgs(t.CallArgs)
		if err != nil {
			return nil, err
		}
		var rets []int
		retBlock := 0
		if !t.Tail {
			retBlock = t.RetNode.Index
			for _, p := range lower.ValParams(t.RetCont, nil) {
				reg, err := e.regOf(p)
				if err != nil {
					return nil, err
				}
				rets = append(rets, reg)
			}
		}
		if t.Direct != nil {
			idx := e.g.declare(t.Direct)
			if t.Tail {
				return []vm.Instr{{Op: vm.OpTailCall, Imm: int64(idx), Args: args}}, nil
			}
			return []vm.Instr{{Op: vm.OpCall, Imm: int64(idx), Args: args, Rets: rets, C: retBlock}}, nil
		}
		cr, err := e.regOf(t.Callee)
		if err != nil {
			return nil, err
		}
		if t.Tail {
			return []vm.Instr{{Op: vm.OpTailCallClosure, B: cr, Args: args}}, nil
		}
		return []vm.Instr{{Op: vm.OpCallClosure, B: cr, Args: args, Rets: rets, C: retBlock}}, nil
	}
	return nil, fmt.Errorf("unclassified terminator")
}
