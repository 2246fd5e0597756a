package vm

import (
	"errors"
	"fmt"
	"slices"
)

// prepare validates p and classifies its jumps, once per Program: every
// VM of p shares the outcome, and p must not change afterwards.
func (p *Program) prepare() error {
	p.prepared.Do(func() { p.err = p.validate() })
	return p.err
}

// validate checks everything the dispatch loop relies on without a check
// of its own: every register, block, function and global index, the
// argument count of every jump and direct call, and that every block ends
// in a transfer, so no run falls off the code end. It marks each jump
// whose parallel copy must be staged. What depends on run-time values is
// checked where it happens: a closure call's argument count against its
// callee, a return's value count against its caller, a tuple index.
func (p *Program) validate() error {
	if p.Main < 0 || p.Main >= len(p.Funcs) {
		return fmt.Errorf("vm: invalid program: main function %d out of range [0,%d)", p.Main, len(p.Funcs))
	}
	for i, fn := range p.Funcs {
		if fn == nil {
			return fmt.Errorf("vm: invalid program: function %d is missing", i)
		}
		if err := p.validateFunc(fn); err != nil {
			return fmt.Errorf("vm: invalid program: %s: %w", fn.Name, err)
		}
	}
	return nil
}

func (p *Program) validateFunc(fn *Func) error {
	n := len(fn.Code)
	if n == 0 || !fn.Code[n-1].Op.endsBlock() {
		return errors.New("falls off the code end")
	}
	if fn.NumRegs < 0 {
		return fmt.Errorf("negative register count %d", fn.NumRegs)
	}
	if err := checkRegs(fn, fn.ParamRegs); err != nil {
		return fmt.Errorf("params: %w", err)
	}
	for i := range fn.Blocks {
		b := &fn.Blocks[i]
		switch {
		case b.Start < 0 || b.Start >= n:
			return fmt.Errorf("block %d (%s) starts at pc %d, outside [0,%d)", i, b.Name, b.Start, n)
		case b.Start > 0 && !fn.Code[b.Start-1].Op.endsBlock():
			return fmt.Errorf("pc %d falls through into block %d (%s)", b.Start-1, i, b.Name)
		}
		if err := checkRegs(fn, b.ParamRegs); err != nil {
			return fmt.Errorf("block %d (%s) params: %w", i, b.Name, err)
		}
	}
	for pc := range fn.Code {
		if err := p.checkInstr(fn, &fn.Code[pc]); err != nil {
			return fmt.Errorf("pc %d (%v): %w", pc, fn.Code[pc].Op, err)
		}
	}
	return nil
}

// endsBlock reports whether o transfers control, as the last instruction
// of every block must.
func (o Opcode) endsBlock() bool {
	switch o {
	case OpJmp, OpBr, OpCall, OpTailCall, OpCallClosure, OpTailCallClosure, OpRet, OpHalt:
		return true
	}
	return false
}

// checkInstr checks the operands of in, an instruction of fn.
func (p *Program) checkInstr(fn *Func, in *Instr) error {
	// The registers in names besides Args and Rets, in its own shape (see
	// formatInstr).
	var regs []int
	switch op := in.Op; {
	case op >= OpAddI && op <= OpGeF, op == OpLea, op == OpTupleSet:
		regs = []int{in.A, in.B, in.C}
	case op == OpSelect:
		regs = []int{in.A, in.B, in.C, int(in.Imm)}
	case op == OpMov, op >= OpCastIF && op <= OpCastFF, op == OpArrayNew, op == OpArrayLen,
		op == OpPtrLoad, op == OpPtrStore, op == OpTupleGet:
		regs = []int{in.A, in.B}
	case op == OpConstI, op == OpConstF, op == OpBr, op == OpClosureNew, op == OpSlotNew,
		op == OpGlobalPtr, op == OpTupleNew, op >= OpPrintI64 && op <= OpPrintChar:
		regs = []int{in.A}
	case op == OpCallClosure, op == OpTailCallClosure:
		regs = []int{in.B}
	case op == OpNop, op == OpJmp, op == OpCall, op == OpTailCall, op == OpRet, op == OpHalt:
	default:
		return errors.New("unknown opcode")
	}
	for _, rs := range [][]int{regs, in.Args, in.Rets} {
		if err := checkRegs(fn, rs); err != nil {
			return err
		}
	}

	switch in.Op {
	case OpJmp:
		b, err := block(fn, in.Imm)
		if err != nil {
			return err
		}
		if len(in.Args) != len(b.ParamRegs) {
			return fmt.Errorf("passes %d arguments to block %s, which takes %d", len(in.Args), b.Name, len(b.ParamRegs))
		}
		in.staged = clobbers(b.ParamRegs, in.Args)
	case OpBr:
		for _, bi := range []int{in.B, in.C} {
			b, err := block(fn, int64(bi))
			if err != nil {
				return err
			}
			if len(b.ParamRegs) != 0 {
				return fmt.Errorf("branches to block %s, which takes %d arguments", b.Name, len(b.ParamRegs))
			}
		}
	case OpCall, OpTailCall:
		if in.Imm < 0 || in.Imm >= int64(len(p.Funcs)) {
			return fmt.Errorf("function %d out of range [0,%d)", in.Imm, len(p.Funcs))
		}
		if callee := p.Funcs[in.Imm]; callee != nil && len(in.Args) != len(callee.ParamRegs) {
			return fmt.Errorf("passes %d arguments to %s, which takes %d", len(in.Args), callee.Name, len(callee.ParamRegs))
		}
	case OpClosureNew:
		if in.Imm < 0 || in.Imm >= int64(len(p.Funcs)) {
			return fmt.Errorf("function %d out of range [0,%d)", in.Imm, len(p.Funcs))
		}
	case OpGlobalPtr:
		if in.Imm < 0 || in.Imm >= int64(len(p.Globals)) {
			return fmt.Errorf("global %d out of range [0,%d)", in.Imm, len(p.Globals))
		}
	}
	if in.Op == OpCall || in.Op == OpCallClosure {
		if _, err := block(fn, int64(in.C)); err != nil {
			return fmt.Errorf("return %w", err)
		}
	}
	return nil
}

// checkRegs checks that every register in rs is one of fn's.
func checkRegs(fn *Func, rs []int) error {
	for _, r := range rs {
		if r < 0 || r >= fn.NumRegs {
			return fmt.Errorf("register r%d out of range [0,%d)", r, fn.NumRegs)
		}
	}
	return nil
}

// block returns fn's block i.
func block(fn *Func, i int64) (*Block, error) {
	if i < 0 || i >= int64(len(fn.Blocks)) {
		return nil, fmt.Errorf("block %d out of range [0,%d)", i, len(fn.Blocks))
	}
	return &fn.Blocks[i], nil
}

// clobbers reports whether copying args into params one by one would
// overwrite an argument before it is read: some param register is also a
// later argument. Such a jump stages its copy.
func clobbers(params, args []int) bool {
	for i, p := range params {
		if slices.Contains(args[i+1:], p) {
			return true
		}
	}
	return false
}
