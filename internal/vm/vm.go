// Package vm implements a register-based bytecode virtual machine used as
// the execution substrate for the reproduction. The paper's authors compile
// Thorin to native code via LLVM; this VM plays that role while providing
// deterministic cost counters (instructions, closure allocations, direct vs.
// indirect calls) so the experiments measure structure rather than machine
// noise, alongside wall-clock benchmarks.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Opcode enumerates VM instructions.
type Opcode uint8

// Instruction set. Register operands are denoted A, B, C; Imm is an
// immediate. Call-like instructions use Args (argument registers) and Rets
// (caller registers receiving results).
const (
	OpNop Opcode = iota

	OpConstI // regs[A] = Imm
	OpConstF // regs[A] = F
	OpMov    // regs[A] = regs[B]

	// Integer arithmetic: regs[A] = regs[B] op regs[C].
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpRemI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI

	// Float arithmetic.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpRemF

	// Comparisons (result 0/1 in I).
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF

	OpSelect // regs[A] = regs[B].I != 0 ? regs[C] : regs[Imm]

	OpCastIF // regs[A] = float(regs[B].I)
	OpCastFI // regs[A] = int(regs[B].F)
	OpCastII // regs[A] = truncate(regs[B].I, Imm bits)
	OpCastFF // regs[A] = float32-round(regs[B].F) if Imm==32

	OpJmp // jump to block Imm, copying Args to its param registers

	OpBr // if regs[A].I != 0 jump block B else block C

	// OpCall calls function Imm with Args; on return, Rets receive the
	// results and execution continues at block C.
	OpCall
	// OpTailCall replaces the current frame with a call to function Imm.
	OpTailCall
	// OpCallClosure calls the closure in regs[B] (env appended to Args).
	OpCallClosure
	// OpTailCallClosure tail-calls the closure in regs[B].
	OpTailCallClosure
	// OpRet returns Args to the caller.
	OpRet

	OpClosureNew // regs[A] = closure{fn: Imm, env: Args}
	OpArrayNew   // regs[A] = new array of regs[B].I zero values
	OpArrayLen   // regs[A] = len(regs[B] array)
	OpLea        // regs[A] = &regs[B].array[regs[C].I]
	OpSlotNew    // regs[A] = new cell pointer
	OpGlobalPtr  // regs[A] = pointer to global Imm
	OpPtrLoad    // regs[A] = *regs[B]
	OpPtrStore   // *regs[A] = regs[B]

	OpTupleNew // regs[A] = tuple(Args)
	OpTupleGet // regs[A] = regs[B].tuple[Imm]
	OpTupleSet // regs[A] = regs[B].tuple with [Imm] = regs[C]

	OpPrintI64  // print regs[A].I
	OpPrintF64  // print regs[A].F
	OpPrintChar // print rune regs[A].I

	OpHalt // stop; Args are the program results
)

var opcodeNames = [...]string{
	OpNop: "nop", OpConstI: "const.i", OpConstF: "const.f", OpMov: "mov",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i",
	OpRemI: "rem.i", OpAndI: "and.i", OpOrI: "or.i", OpXorI: "xor.i",
	OpShlI: "shl.i", OpShrI: "shr.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpRemF: "rem.f",
	OpEqI:  "eq.i", OpNeI: "ne.i", OpLtI: "lt.i", OpLeI: "le.i",
	OpGtI: "gt.i", OpGeI: "ge.i",
	OpEqF: "eq.f", OpNeF: "ne.f", OpLtF: "lt.f", OpLeF: "le.f",
	OpGtF: "gt.f", OpGeF: "ge.f",
	OpSelect: "select",
	OpCastIF: "cast.if", OpCastFI: "cast.fi", OpCastII: "cast.ii", OpCastFF: "cast.ff",
	OpJmp: "jmp", OpBr: "br",
	OpCall: "call", OpTailCall: "tcall",
	OpCallClosure: "call.c", OpTailCallClosure: "tcall.c", OpRet: "ret",
	OpClosureNew: "closure", OpArrayNew: "array.new", OpArrayLen: "array.len",
	OpLea: "lea", OpSlotNew: "slot", OpGlobalPtr: "global",
	OpPtrLoad: "load", OpPtrStore: "store",
	OpTupleNew: "tuple", OpTupleGet: "tuple.get", OpTupleSet: "tuple.set",
	OpPrintI64: "print.i", OpPrintF64: "print.f", OpPrintChar: "print.c",
	OpHalt: "halt",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one VM instruction.
type Instr struct {
	Op Opcode
	// staged marks a jmp whose parallel copy must stage its arguments: a
	// target param register is also a later argument. Program preparation
	// sets it.
	staged  bool
	A, B, C int
	Imm     int64
	F       float64
	Args    []int
	Rets    []int
}

// Value is a VM value: integers and booleans in I, floats in F, and heap
// entities (closures, arrays, tuples, pointers) in Ref. An element
// pointer keeps its index in I.
type Value struct {
	I   int64
	F   float64
	Ref any
}

// Closure pairs a function index with its captured environment.
type Closure struct {
	Fn  int
	Env []Value
}

// Array is a heap array.
type Array struct {
	Elems []Value
}

// Pointers are pointer-shaped values, so forming one allocates nothing: a
// slot or global pointer is Value{Ref: *Value}, and an element pointer is
// Value{Ref: elemRef(arr), I: idx}. Bounds are checked at the access, not
// when the address is formed.

// elemRef is the Ref of an element pointer: its base array. A distinct
// type keeps an element pointer apart from the array value itself.
type elemRef *Array

// deref returns the cell p addresses, or nil if p is not a pointer or an
// element pointer out of bounds.
func deref(p Value) *Value {
	switch ref := p.Ref.(type) {
	case *Value:
		return ref
	case elemRef:
		if uint64(p.I) < uint64(len(ref.Elems)) {
			return &ref.Elems[p.I]
		}
	}
	return nil
}

// derefError explains why access ("load" or "store") through p failed.
func derefError(fn *Func, access string, p Value) error {
	if ref, ok := p.Ref.(elemRef); ok {
		return fmt.Errorf("vm: %s: %s: index %d out of bounds [0,%d)", fn.Name, access, p.I, len(ref.Elems))
	}
	return fmt.Errorf("vm: %s: %s through non-pointer", fn.Name, access)
}

// baseArray returns the array v holds or an element pointer into, or nil.
func baseArray(v Value) *Array {
	switch ref := v.Ref.(type) {
	case *Array:
		return ref
	case elemRef:
		return ref
	}
	return nil
}

// Block is the metadata of one basic block within a function.
type Block struct {
	Name      string
	Start     int   // pc of the first instruction
	ParamRegs []int // registers that receive jump arguments
}

// Func is one compiled function.
type Func struct {
	Name      string
	NumRegs   int
	ParamRegs []int // registers receiving call arguments (env included)
	Blocks    []Block
	Code      []Instr
}

// Program is a complete compiled program. Its first run validates and
// prepares it (see prepare), so it must not change after that.
type Program struct {
	Funcs   []*Func
	Main    int
	Globals []Value // initial values of global cells

	prepared sync.Once
	err      error // the outcome of preparation
}

// Counters accumulates deterministic cost metrics during execution.
type Counters struct {
	Instructions  int64
	DirectCalls   int64
	IndirectCalls int64
	TailCalls     int64
	Branches      int64
	ClosureAllocs int64
	ArrayAllocs   int64
	HeapWords     int64
	TupleAllocs   int64
	Loads         int64
	Stores        int64
	MaxStackDepth int64
}

// VM executes a Program.
type VM struct {
	prog    *Program
	globals []Value
	out     io.Writer
	// MaxSteps bounds the instructions a run may execute (0 = no bound).
	// It is charged once per straight-line run (see run): a run of C
	// instructions succeeds with MaxSteps C, and a smaller bound returns
	// ErrStepLimit at the first transfer or print past it, with
	// Counters.Instructions past the bound.
	MaxSteps int64
	Counters Counters

	// frames is the call stack, innermost last. Frames are kept by value,
	// so a *frame is only valid until the next push.
	frames []frame
	// regs is the register arena: each frame's register file is the LIFO
	// slice regs[base:base+fn.NumRegs]. Registers above the innermost
	// frame are always zero, so a new frame starts from zeroed registers
	// and the arena keeps no dead heap value alive.
	regs []Value
	// tmp stages the values of a jump's parallel copy and a tail call's
	// arguments.
	tmp []Value
}

// New creates a VM for prog writing intrinsic output to out (io.Discard if
// nil).
func New(prog *Program, out io.Writer) *VM {
	if out == nil {
		out = io.Discard
	}
	g := make([]Value, len(prog.Globals))
	copy(g, prog.Globals)
	return &VM{prog: prog, globals: g, out: out}
}

type frame struct {
	fn       *Func
	base     int   // offset of the register file in VM.regs
	rets     []int // caller registers receiving the return values
	retBlock int   // caller block to continue at (-1: top level)
}

// MaxArrayLen is the largest array array.new allocates; a larger size is
// refused with an out-of-memory error before the host is asked for it.
// The largest accepted array costs 4 GiB of host memory (32-byte
// Values), the size of the wasm target's whole linear memory, whose
// array helper refuses the same sizes.
const MaxArrayLen = 1 << 27

// ErrStepLimit is returned when MaxSteps is exceeded.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// Run executes the program's main function with the given arguments and
// returns its results.
func (m *VM) Run(args ...Value) ([]Value, error) {
	return m.Call(m.prog.Main, args...)
}

// Call executes function fnIdx with args and returns its results. The
// first call on any VM of the program validates it; an invalid program
// returns the same error from every call.
func (m *VM) Call(fnIdx int, args ...Value) ([]Value, error) {
	if err := m.prog.prepare(); err != nil {
		return nil, err
	}
	if fnIdx < 0 || fnIdx >= len(m.prog.Funcs) {
		return nil, fmt.Errorf("vm: function %d out of range [0,%d)", fnIdx, len(m.prog.Funcs))
	}
	fn := m.prog.Funcs[fnIdx]
	if len(args) != len(fn.ParamRegs) {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.ParamRegs), len(args))
	}
	defer m.unwind()
	r := m.push(fn, nil, -1)
	for i, p := range fn.ParamRegs {
		r[p] = args[i]
	}
	return m.run(fn, r)
}

// push appends a frame for fn and returns its zeroed register file.
func (m *VM) push(fn *Func, rets []int, retBlock int) []Value {
	base := 0
	if n := len(m.frames); n > 0 {
		f := &m.frames[n-1]
		base = f.base + f.fn.NumRegs
	}
	if need := base + fn.NumRegs; need > len(m.regs) {
		regs := make([]Value, max(2*len(m.regs), need, 64))
		copy(regs, m.regs[:base])
		m.regs = regs
	}
	m.frames = append(m.frames, frame{fn: fn, base: base, rets: rets, retBlock: retBlock})
	return m.regs[base : base+fn.NumRegs : base+fn.NumRegs]
}

// pop zeroes the innermost frame's registers and removes the frame.
func (m *VM) pop() {
	f := &m.frames[len(m.frames)-1]
	clear(m.regs[f.base : f.base+f.fn.NumRegs])
	m.frames = m.frames[:len(m.frames)-1]
}

// unwind pops every frame left behind by an error or a halt, restoring
// the all-zero arena.
func (m *VM) unwind() {
	for len(m.frames) > 0 {
		m.pop()
	}
	clear(m.tmp)
}

// run executes from the start of fn, the innermost frame's function with
// registers r, until the outermost frame returns. The instruction count
// lives in a local and is written back on exit.
//
// The step budget is charged once per straight-line run, the instructions
// from start through pc, at the control transfer or print that ends it. A
// run that a halt, a top-level return or a trap ends is charged on exit.
// A charge past MaxSteps stops before the transfer or print takes effect.
// Validation guarantees every run ends in a transfer, so no instruction
// needs a guard of its own.
//
// Every instruction that calls no Go function, jumps and branches
// included, runs in straight. Go saves no registers across a call, so a
// call anywhere in a dispatch loop makes the compiler store the loop's
// state on every dispatch; straight calls nothing and keeps it in
// registers. This loop runs the rest: calls and returns, allocations,
// prints, rem.f (math.Mod), staged jumps, and every fault and budget stop,
// which straight leaves to it.
func (m *VM) run(fn *Func, r []Value) (vals []Value, err error) {
	pc, start := 0, 0
	steps := m.Counters.Instructions
	limit := m.MaxSteps
	if limit <= 0 {
		limit = math.MaxInt64
	}

loop:
	for {
		pc, start, steps = m.straight(fn, r, pc, start, steps, limit)
		in := &fn.Code[pc]
		switch in.Op {
		// straight leaves these only when they fault.
		case OpDivI:
			err = fmt.Errorf("vm: %s: division by zero", fn.Name)
			break loop
		case OpRemI:
			err = fmt.Errorf("vm: %s: remainder by zero", fn.Name)
			break loop
		case OpArrayLen:
			err = fmt.Errorf("vm: %s: len of non-array", fn.Name)
			break loop
		case OpLea:
			err = fmt.Errorf("vm: %s: lea into non-array", fn.Name)
			break loop
		case OpPtrLoad:
			err = derefError(fn, "load", r[in.B])
			break loop
		case OpPtrStore:
			err = derefError(fn, "store", r[in.A])
			break loop
		case OpTupleGet:
			err = fmt.Errorf("vm: %s: tuple.get .%d of a non-tuple or shorter tuple", fn.Name, in.Imm)
			break loop

		case OpJmp: // a staged jump, or one past the budget
			if steps += int64(pc + 1 - start); steps > limit {
				break loop
			}
			b := &fn.Blocks[in.Imm]
			m.stagedCopy(r, b.ParamRegs, in.Args)
			pc, start = b.Start, b.Start
			continue

		case OpBr: // past the budget
			steps += int64(pc + 1 - start)
			break loop

		case OpCall, OpTailCall:
			if steps += int64(pc + 1 - start); steps > limit {
				break loop
			}
			tail := in.Op == OpTailCall
			if tail {
				m.Counters.TailCalls++
			} else {
				m.Counters.DirectCalls++
			}
			fn = m.prog.Funcs[in.Imm]
			r = m.call(fn, r, in, nil, tail)
			pc, start = 0, 0
			continue

		case OpCallClosure, OpTailCallClosure:
			clo, ok := r[in.B].Ref.(*Closure)
			if !ok {
				err = fmt.Errorf("vm: %s: call through non-closure", fn.Name)
				break loop
			}
			callee := m.prog.Funcs[clo.Fn]
			if len(in.Args)+len(clo.Env) != len(callee.ParamRegs) {
				err = fmt.Errorf("vm: %s: call.c passes %d values, %s expects %d",
					fn.Name, len(in.Args)+len(clo.Env), callee.Name, len(callee.ParamRegs))
				break loop
			}
			if steps += int64(pc + 1 - start); steps > limit {
				break loop
			}
			tail := in.Op == OpTailCallClosure
			m.Counters.IndirectCalls++
			if tail {
				m.Counters.TailCalls++
			}
			fn = callee
			r = m.call(fn, r, in, clo.Env, tail)
			pc, start = 0, 0
			continue

		case OpRet:
			f := &m.frames[len(m.frames)-1]
			if len(m.frames) == 1 || f.retBlock < 0 {
				vals = results(r, in.Args)
				break loop
			}
			if len(in.Args) != len(f.rets) {
				err = fmt.Errorf("vm: %s returned %d values, caller expects %d",
					fn.Name, len(in.Args), len(f.rets))
				break loop
			}
			if steps += int64(pc + 1 - start); steps > limit {
				break loop
			}
			caller := &m.frames[len(m.frames)-2]
			fn = caller.fn
			cr := m.regs[caller.base : caller.base+fn.NumRegs : caller.base+fn.NumRegs]
			for i, reg := range f.rets {
				cr[reg] = r[in.Args[i]]
			}
			pc = fn.Blocks[f.retBlock].Start
			start = pc
			m.pop()
			r = cr
			continue

		case OpRemF:
			r[in.A] = Value{F: math.Mod(r[in.B].F, r[in.C].F)}

		case OpClosureNew:
			env := results(r, in.Args)
			m.Counters.ClosureAllocs++
			m.Counters.HeapWords += int64(len(env)) + 1
			r[in.A] = Value{Ref: &Closure{Fn: int(in.Imm), Env: env}}

		case OpArrayNew:
			n := r[in.B].I
			if uint64(n) > MaxArrayLen {
				if n < 0 {
					err = fmt.Errorf("vm: %s: negative array size %d", fn.Name, n)
				} else {
					err = fmt.Errorf("vm: %s: out of memory: array of %d elements", fn.Name, n)
				}
				break loop
			}
			m.Counters.ArrayAllocs++
			m.Counters.HeapWords += n
			r[in.A] = Value{Ref: &Array{Elems: make([]Value, n)}}

		case OpSlotNew:
			m.Counters.HeapWords++
			r[in.A] = Value{Ref: new(Value)}

		case OpTupleNew:
			m.Counters.TupleAllocs++
			m.Counters.HeapWords += int64(len(in.Args))
			r[in.A] = Value{Ref: results(r, in.Args)}

		case OpTupleSet:
			tup, ok := r[in.B].Ref.([]Value)
			if !ok || uint64(in.Imm) >= uint64(len(tup)) {
				err = fmt.Errorf("vm: %s: tuple.set .%d of a non-tuple or shorter tuple", fn.Name, in.Imm)
				break loop
			}
			nv := make([]Value, len(tup))
			copy(nv, tup)
			nv[in.Imm] = r[in.C]
			m.Counters.TupleAllocs++
			r[in.A] = Value{Ref: nv}

		case OpPrintI64, OpPrintF64, OpPrintChar:
			if steps += int64(pc + 1 - start); steps > limit {
				break loop
			}
			start = pc + 1
			switch in.Op {
			case OpPrintI64:
				fmt.Fprintf(m.out, "%d\n", r[in.A].I)
			case OpPrintF64:
				fmt.Fprintf(m.out, "%.9g\n", r[in.A].F)
			default:
				fmt.Fprintf(m.out, "%c", rune(r[in.A].I))
			}

		case OpHalt:
			vals = results(r, in.Args)
			break loop
		}
		pc++
	}
	if steps <= limit {
		// The run a halt, a top-level return or a trap ends.
		steps += int64(pc + 1 - start)
	}
	if steps > limit {
		vals, err = nil, ErrStepLimit
	}
	m.Counters.Instructions = steps
	return vals, err
}

// straight runs fn from pc with registers r, charging steps as run does,
// up to the first instruction it cannot run without a call: one that
// calls, allocates or prints, a staged jump, a fault, or a transfer whose
// charge would pass limit. It returns that instruction's pc and the run
// state there; the instruction itself has not run.
func (m *VM) straight(fn *Func, r []Value, pc, start int, steps, limit int64) (int, int, int64) {
	code := fn.Code
	for {
		in := &code[pc]
		switch in.Op {
		case OpNop:
		case OpConstI:
			r[in.A] = Value{I: in.Imm}
		case OpConstF:
			r[in.A] = Value{F: in.F}
		case OpMov:
			r[in.A] = r[in.B]

		case OpAddI:
			r[in.A] = Value{I: r[in.B].I + r[in.C].I}
		case OpSubI:
			r[in.A] = Value{I: r[in.B].I - r[in.C].I}
		case OpMulI:
			r[in.A] = Value{I: r[in.B].I * r[in.C].I}
		case OpDivI:
			if r[in.C].I == 0 {
				return pc, start, steps
			}
			if r[in.B].I == math.MinInt64 && r[in.C].I == -1 {
				// Two's-complement wrap, matching the constant folder; the
				// native operation panics on this pair.
				r[in.A] = Value{I: math.MinInt64}
			} else {
				r[in.A] = Value{I: r[in.B].I / r[in.C].I}
			}
		case OpRemI:
			if r[in.C].I == 0 {
				return pc, start, steps
			}
			if r[in.C].I == -1 {
				r[in.A] = Value{I: 0}
			} else {
				r[in.A] = Value{I: r[in.B].I % r[in.C].I}
			}
		case OpAndI:
			r[in.A] = Value{I: r[in.B].I & r[in.C].I}
		case OpOrI:
			r[in.A] = Value{I: r[in.B].I | r[in.C].I}
		case OpXorI:
			r[in.A] = Value{I: r[in.B].I ^ r[in.C].I}
		case OpShlI:
			r[in.A] = Value{I: r[in.B].I << (uint64(r[in.C].I) & 63)}
		case OpShrI:
			r[in.A] = Value{I: r[in.B].I >> (uint64(r[in.C].I) & 63)}

		case OpAddF:
			r[in.A] = Value{F: r[in.B].F + r[in.C].F}
		case OpSubF:
			r[in.A] = Value{F: r[in.B].F - r[in.C].F}
		case OpMulF:
			r[in.A] = Value{F: r[in.B].F * r[in.C].F}
		case OpDivF:
			r[in.A] = Value{F: r[in.B].F / r[in.C].F}

		case OpEqI:
			r[in.A] = boolVal(r[in.B].I == r[in.C].I)
		case OpNeI:
			r[in.A] = boolVal(r[in.B].I != r[in.C].I)
		case OpLtI:
			r[in.A] = boolVal(r[in.B].I < r[in.C].I)
		case OpLeI:
			r[in.A] = boolVal(r[in.B].I <= r[in.C].I)
		case OpGtI:
			r[in.A] = boolVal(r[in.B].I > r[in.C].I)
		case OpGeI:
			r[in.A] = boolVal(r[in.B].I >= r[in.C].I)
		case OpEqF:
			r[in.A] = boolVal(r[in.B].F == r[in.C].F)
		case OpNeF:
			r[in.A] = boolVal(r[in.B].F != r[in.C].F)
		case OpLtF:
			r[in.A] = boolVal(r[in.B].F < r[in.C].F)
		case OpLeF:
			r[in.A] = boolVal(r[in.B].F <= r[in.C].F)
		case OpGtF:
			r[in.A] = boolVal(r[in.B].F > r[in.C].F)
		case OpGeF:
			r[in.A] = boolVal(r[in.B].F >= r[in.C].F)

		case OpSelect:
			if r[in.B].I != 0 {
				r[in.A] = r[in.C]
			} else {
				r[in.A] = r[int(in.Imm)]
			}

		case OpCastIF:
			r[in.A] = Value{F: float64(r[in.B].I)}
		case OpCastFI:
			r[in.A] = Value{I: int64(r[in.B].F)}
		case OpCastII:
			r[in.A] = Value{I: truncBits(r[in.B].I, int(in.Imm))}
		case OpCastFF:
			v := r[in.B].F
			if in.Imm == 32 {
				v = float64(float32(v))
			}
			r[in.A] = Value{F: v}

		case OpJmp:
			n := steps + int64(pc+1-start)
			if n > limit || in.staged {
				return pc, start, steps
			}
			steps = n
			b := &fn.Blocks[in.Imm]
			for i, a := range in.Args {
				r[b.ParamRegs[i]] = r[a]
			}
			pc, start = b.Start, b.Start
			continue

		case OpBr:
			n := steps + int64(pc+1-start)
			if n > limit {
				return pc, start, steps
			}
			steps = n
			m.Counters.Branches++
			if r[in.A].I != 0 {
				pc = fn.Blocks[in.B].Start
			} else {
				pc = fn.Blocks[in.C].Start
			}
			start = pc
			continue

		case OpArrayLen:
			arr := baseArray(r[in.B])
			if arr == nil {
				return pc, start, steps
			}
			r[in.A] = Value{I: int64(len(arr.Elems))}

		case OpLea:
			// Address computation is speculatable (optimizers may hoist it
			// above the guarding branch); bounds are checked at the access.
			arr := baseArray(r[in.B])
			if arr == nil {
				return pc, start, steps
			}
			r[in.A] = Value{I: r[in.C].I, Ref: elemRef(arr)}

		case OpGlobalPtr:
			r[in.A] = Value{Ref: &m.globals[in.Imm]}

		case OpPtrLoad:
			c := deref(r[in.B])
			if c == nil {
				return pc, start, steps
			}
			m.Counters.Loads++
			r[in.A] = *c

		case OpPtrStore:
			c := deref(r[in.A])
			if c == nil {
				return pc, start, steps
			}
			m.Counters.Stores++
			*c = r[in.B]

		case OpTupleGet:
			tup, ok := r[in.B].Ref.([]Value)
			if !ok || uint64(in.Imm) >= uint64(len(tup)) {
				return pc, start, steps
			}
			r[in.A] = tup[in.Imm]

		default:
			return pc, start, steps
		}
		pc++
	}
}

// results copies the registers args of r into a new slice.
func results(r []Value, args []int) []Value {
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = r[a]
	}
	return vals
}

// stagedCopy is the parallel copy of a staged jump: it reads every
// argument register of r before it writes any param register.
func (m *VM) stagedCopy(r []Value, params, args []int) {
	tmp := m.stage(len(args))
	for i, a := range args {
		tmp[i] = r[a]
	}
	for i, p := range params {
		r[p] = tmp[i]
	}
}

// stage returns m.tmp resliced to n values.
func (m *VM) stage(n int) []Value {
	if n > len(m.tmp) {
		m.tmp = make([]Value, max(n, 2*len(m.tmp)))
	}
	return m.tmp[:n]
}

// call pushes a frame for callee, passing in's arguments from the caller's
// registers r followed by env, and returns the callee's registers. A tail
// call first releases the caller's frame, so the callee reuses its
// registers and tail-call loops run in constant space.
func (m *VM) call(callee *Func, r []Value, in *Instr, env []Value, tail bool) []Value {
	rets, retBlock := in.Rets, in.C
	if tail {
		tmp := m.stage(len(in.Args))
		for i, a := range in.Args {
			tmp[i] = r[a]
		}
		caller := &m.frames[len(m.frames)-1]
		rets, retBlock = caller.rets, caller.retBlock
		m.pop()
	}
	nr := m.push(callee, rets, retBlock)
	m.noteDepth(len(m.frames))
	for i, a := range in.Args {
		if tail {
			nr[callee.ParamRegs[i]] = m.tmp[i]
		} else {
			nr[callee.ParamRegs[i]] = r[a]
		}
	}
	for i, v := range env {
		nr[callee.ParamRegs[len(in.Args)+i]] = v
	}
	return nr
}

func (m *VM) noteDepth(d int) {
	if int64(d) > m.Counters.MaxStackDepth {
		m.Counters.MaxStackDepth = int64(d)
	}
}

func boolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}

func truncBits(v int64, bits int) int64 {
	switch bits {
	case 1:
		if v != 0 {
			return 1
		}
		return 0
	case 8:
		return int64(int8(v))
	case 16:
		return int64(int16(v))
	case 32:
		return int64(int32(v))
	default:
		return v
	}
}
