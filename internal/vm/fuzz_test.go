package vm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzSteps is the step budget of every fuzzed run.
const fuzzSteps = 10_000

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// pick draws an index below n. Bytes from 250 up draw one out of range,
// so most indexes are valid and most programs get as far as running.
func (d *fuzzBytes) pick(n int) int {
	switch b := d.next(); {
	case b == 255:
		return -1
	case b >= 250:
		return n + b - 250
	case n == 0:
		return 0
	default:
		return b % n
	}
}

func (d *fuzzBytes) regs(fn *Func, n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = d.pick(fn.NumRegs)
	}
	return rs
}

// fuzzOps are the opcodes a fuzzed block body draws from.
var fuzzOps = func() []Opcode {
	var ops []Opcode
	for op := OpNop; op <= OpHalt; op++ {
		if !op.endsBlock() {
			ops = append(ops, op)
		}
	}
	return append(ops, OpHalt+1) // an unknown opcode
}()

var fuzzTransfers = []Opcode{OpJmp, OpBr, OpCall, OpTailCall, OpCallClosure, OpTailCallClosure, OpRet, OpHalt}

// fuzzProgram builds a program of up to three functions from data: each
// function's blocks are laid out in order, a few body instructions then
// one transfer, with every operand and index drawn from data.
func fuzzProgram(data []byte) *Program {
	d := fuzzBytes(data)
	p := &Program{Globals: make([]Value, d.next()%3)}
	for range 1 + d.next()%3 {
		fn := &Func{Name: "f", NumRegs: 1 + d.next()%6}
		fn.ParamRegs = d.regs(fn, d.next()%3)
		fn.Blocks = make([]Block, 1+d.next()%3)
		for i := 1; i < len(fn.Blocks); i++ {
			fn.Blocks[i].ParamRegs = d.regs(fn, d.next()%3)
		}
		p.Funcs = append(p.Funcs, fn)
	}
	for _, fn := range p.Funcs {
		for i := range fn.Blocks {
			fn.Blocks[i].Start = len(fn.Code)
			for range d.next() % 4 {
				in := d.instr(p, fn, fuzzOps[d.next()%len(fuzzOps)])
				if in.Op == OpArrayNew {
					// Arithmetic drives a register to any value, so the
					// size is loaded right before, in the same block.
					fn.Code = append(fn.Code, Instr{Op: OpConstI, A: in.B, Imm: d.arraySize()})
				}
				fn.Code = append(fn.Code, in)
			}
			fn.Code = append(fn.Code, d.instr(p, fn, fuzzTransfers[d.next()%len(fuzzTransfers)]))
		}
	}
	p.Main = d.pick(len(p.Funcs))
	return p
}

// fuzzHugeSizes are the array sizes drawn besides the small ones: negative
// or above MaxArrayLen, so all are refused. No size between 2^12 and the
// ceiling is ever drawn, so no input asks the host for gigabytes.
var fuzzHugeSizes = []int64{-1, math.MinInt64, MaxArrayLen + 1, 1 << 40, 1 << 61, 1 << 62, math.MaxInt64}

// arraySize draws an array.new size: a small one (below 2^12) three times
// in four, else one of fuzzHugeSizes.
func (d *fuzzBytes) arraySize() int64 {
	if b := d.next(); b%4 != 0 {
		return int64(b) << 4
	}
	return fuzzHugeSizes[d.next()%len(fuzzHugeSizes)]
}

// instr draws an instruction of fn with opcode op, giving each index
// field the range its opcode reads it in.
func (d *fuzzBytes) instr(p *Program, fn *Func, op Opcode) Instr {
	in := Instr{Op: op, A: d.pick(fn.NumRegs), B: d.pick(fn.NumRegs), C: d.pick(fn.NumRegs)}
	in.Args = d.regs(fn, d.next()%3)
	switch op {
	case OpConstI:
		in.Imm = int64(int8(d.next()))
	case OpSelect:
		in.Imm = int64(d.pick(fn.NumRegs))
	case OpCastII:
		in.Imm = int64([]int{1, 8, 16, 32, 64}[d.next()%5])
	case OpTupleGet, OpTupleSet:
		in.Imm = int64(d.pick(3))
	case OpGlobalPtr:
		in.Imm = int64(d.pick(len(p.Globals)))
	case OpClosureNew:
		in.Imm = int64(d.pick(len(p.Funcs)))
	case OpJmp:
		in.Imm = int64(d.pick(len(fn.Blocks)))
		if in.Imm >= 0 && in.Imm < int64(len(fn.Blocks)) {
			in.Args = d.regs(fn, len(fn.Blocks[in.Imm].ParamRegs))
		}
	case OpBr:
		in.B, in.C = d.pick(len(fn.Blocks)), d.pick(len(fn.Blocks))
	case OpCall, OpTailCall:
		in.Imm = int64(d.pick(len(p.Funcs)))
		if in.Imm >= 0 && in.Imm < int64(len(p.Funcs)) {
			in.Args = d.regs(fn, len(p.Funcs[in.Imm].ParamRegs))
		}
	}
	if op == OpCall || op == OpCallClosure {
		in.C = d.pick(len(fn.Blocks))
		in.Rets = d.regs(fn, d.next()%2)
	}
	return in
}

// fuzzRun runs p's main under the fuzz budget.
func fuzzRun(p *Program) ([]Value, Counters, error) {
	var args []Value
	if p.Main >= 0 && p.Main < len(p.Funcs) {
		for i := range p.Funcs[p.Main].ParamRegs {
			args = append(args, Value{I: int64(i + 3)})
		}
	}
	m := New(p, nil)
	m.MaxSteps = fuzzSteps
	res, err := m.Run(args...)
	return res, m.Counters, err
}

// directIsParallel reports whether copying args into params one by one
// leaves a file of n distinct values as the parallel copy does.
func directIsParallel(n int, params, args []int) bool {
	seq, par := make([]int, n), make([]int, n)
	for i := range seq {
		seq[i], par[i] = i, i
	}
	for i, a := range args {
		seq[params[i]] = seq[a]
		par[params[i]] = a
	}
	return slices.Equal(seq, par)
}

// scalars keeps the integer and float bits of vals, which compare across
// runs, NaNs included.
func scalars(vals []Value) [][2]uint64 {
	out := make([][2]uint64, len(vals))
	for i, v := range vals {
		out[i] = [2]uint64{uint64(v.I), math.Float64bits(v.F)}
	}
	return out
}

// FuzzVMProgram builds a small program from the fuzz bytes. Validation
// must reject it, or it must run under a 10,000-step budget without a
// panic, charging the budget exactly. It then runs again with every jump
// forced to stage its copy, which must change nothing.
func FuzzVMProgram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 1, 0, 2, 1, 0, 0, 2, 2, 0})
	f.Add([]byte{1, 1, 5, 2, 0, 1, 1, 2, 1, 0, 3, 7, 1, 2, 3, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 1, 6})
	f.Add([]byte("loop: jump back to the entry block until the budget runs out"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		res, ctr, err := fuzzRun(p)
		if err != nil && strings.Contains(err.Error(), "invalid program") {
			return
		}
		if over := errors.Is(err, ErrStepLimit); over != (ctr.Instructions > fuzzSteps) {
			t.Fatalf("%d instructions under a budget of %d, error %v", ctr.Instructions, fuzzSteps, err)
		}

		// A jump copies directly only if that equals the parallel copy.
		for _, fn := range p.Funcs {
			for _, in := range fn.Code {
				if in.Op == OpJmp && !in.staged && !directIsParallel(fn.NumRegs, fn.Blocks[in.Imm].ParamRegs, in.Args) {
					t.Fatalf("jmp %v to params %v copies directly, but that is no parallel copy", in.Args, fn.Blocks[in.Imm].ParamRegs)
				}
			}
		}

		// Every jump staged: the direct copies must change nothing.
		q := fuzzProgram(data)
		if err := q.prepare(); err != nil {
			t.Fatalf("the same bytes validate once but not twice: %v", err)
		}
		for _, fn := range q.Funcs {
			for i := range fn.Code {
				fn.Code[i].staged = fn.Code[i].Op == OpJmp
			}
		}
		res2, ctr2, err2 := fuzzRun(q)
		if ctr2 != ctr || fmt.Sprint(err2) != fmt.Sprint(err) || !slices.Equal(scalars(res2), scalars(res)) {
			t.Fatalf("staging every jump changed the run: %v %v %+v, then %v %v %+v", res, err, ctr, res2, err2, ctr2)
		}
	})
}
