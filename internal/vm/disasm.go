package vm

import (
	"fmt"
	"io"
)

// Disassemble writes a readable listing of the program to out.
func Disassemble(out io.Writer, p *Program) {
	for fi, fn := range p.Funcs {
		marker := ""
		if fi == p.Main {
			marker = " (main)"
		}
		fmt.Fprintf(out, "func %d %s%s: params=%v regs=%d\n", fi, fn.Name, marker, fn.ParamRegs, fn.NumRegs)
		blockAt := map[int]*Block{}
		for i := range fn.Blocks {
			blockAt[fn.Blocks[i].Start] = &fn.Blocks[i]
		}
		for pc := range fn.Code {
			if b, ok := blockAt[pc]; ok {
				fmt.Fprintf(out, "  %s%v:\n", b.Name, b.ParamRegs)
			}
			fmt.Fprintf(out, "    %4d  %s\n", pc, formatInstr(&fn.Code[pc]))
		}
	}
}

// formatInstr prints in in its own operand shape: a result register for
// ops that have one, then only the operands the op reads.
func formatInstr(in *Instr) string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConstI:
		return fmt.Sprintf("r%d = const.i %d", in.A, in.Imm)
	case OpConstF:
		return fmt.Sprintf("r%d = const.f %g", in.A, in.F)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.A, in.B)
	case OpJmp:
		return fmt.Sprintf("jmp b%d %v", in.Imm, in.Args)
	case OpBr:
		return fmt.Sprintf("br r%d ? b%d : b%d", in.A, in.B, in.C)
	case OpCall:
		return fmt.Sprintf("call f%d %v -> %v, b%d", in.Imm, in.Args, in.Rets, in.C)
	case OpTailCall:
		return fmt.Sprintf("tcall f%d %v", in.Imm, in.Args)
	case OpCallClosure:
		return fmt.Sprintf("call.c r%d %v -> %v, b%d", in.B, in.Args, in.Rets, in.C)
	case OpTailCallClosure:
		return fmt.Sprintf("tcall.c r%d %v", in.B, in.Args)
	case OpRet:
		return fmt.Sprintf("ret %v", in.Args)
	case OpClosureNew:
		return fmt.Sprintf("r%d = closure f%d %v", in.A, in.Imm, in.Args)
	case OpTupleNew:
		return fmt.Sprintf("r%d = tuple %v", in.A, in.Args)
	case OpTupleGet:
		return fmt.Sprintf("r%d = r%d.%d", in.A, in.B, in.Imm)
	case OpTupleSet:
		return fmt.Sprintf("r%d = r%d with .%d = r%d", in.A, in.B, in.Imm, in.C)
	case OpSelect:
		return fmt.Sprintf("r%d = r%d ? r%d : r%d", in.A, in.B, in.C, in.Imm)
	case OpPtrLoad:
		return fmt.Sprintf("r%d = *r%d", in.A, in.B)
	case OpPtrStore:
		return fmt.Sprintf("*r%d = r%d", in.A, in.B)
	case OpSlotNew:
		return fmt.Sprintf("r%d = slot", in.A)
	case OpGlobalPtr:
		return fmt.Sprintf("r%d = global %d", in.A, in.Imm)
	case OpCastII, OpCastFF:
		return fmt.Sprintf("r%d = %s r%d %d", in.A, in.Op, in.B, in.Imm)
	case OpArrayNew, OpArrayLen, OpCastIF, OpCastFI:
		return fmt.Sprintf("r%d = %s r%d", in.A, in.Op, in.B)
	case OpPrintI64, OpPrintF64, OpPrintChar:
		return fmt.Sprintf("%s r%d", in.Op, in.A)
	case OpHalt:
		return fmt.Sprintf("halt %v", in.Args)
	default:
		// Binary arithmetic, comparisons and lea.
		return fmt.Sprintf("r%d = %s r%d r%d", in.A, in.Op, in.B, in.C)
	}
}
