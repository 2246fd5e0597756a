package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrFuel is returned when execution exceeds the instance's fuel budget.
// It plays the role vm.ErrStepLimit plays for the bytecode VM.
var ErrFuel = errors.New("wasm: fuel exhausted")

// Trap is a wasm runtime trap (or a host-function error carrier).
type Trap struct{ Msg string }

func (t *Trap) Error() string { return "wasm: trap: " + t.Msg }

func trapf(format string, args ...any) error {
	return &Trap{Msg: fmt.Sprintf(format, args...)}
}

// HostFunc implements an imported function. Arguments and results are
// passed as raw 64-bit values (f64 as IEEE bits, i32 zero-extended).
type HostFunc struct {
	Type FuncType
	Fn   func(args []uint64) ([]uint64, error)
}

// instr is one decoded instruction (see readInstr and checker).
type instr struct {
	op  byte
	imm int64 // index / depth / constant (f64 as bits) / memarg offset
	x   int32 // structured control: matching end index
	y   int32 // if: else index, or -1
}

// Fused opcodes. Each stands for the first instr of an adjacent pair that
// NewInstance fused; the second instr stays in place after it. They use
// byte values no wasm opcode uses and occur only in an instance's code.
// The pairs are the most frequent adjacent pairs executed by the
// benchmark suite.
const (
	opLocalGetLocalGet = 0xE0 + iota
	opLocalGetI64Const
	opLocalSetLocalGet
	opI64ConstI64Add
)

// fusedPairs maps each fused opcode to the pair of opcodes it runs.
var fusedPairs = [...]struct{ fused, first, second byte }{
	{opLocalGetLocalGet, OpLocalGet, OpLocalGet},
	{opLocalGetI64Const, OpLocalGet, OpI64Const},
	{opLocalSetLocalGet, OpLocalSet, OpLocalGet},
	{opI64ConstI64Add, OpI64Const, OpI64Add},
}

// fuse replaces the first instr of each non-overlapping listed pair, from
// left to right, with its fused opcode. The fused instr runs both halves
// and skips the second, which stays in place, so a branch that lands on
// the second instr runs it alone.
func fuse(code []instr) {
	for i := 0; i+1 < len(code); i++ {
		for _, p := range fusedPairs {
			if code[i].op == p.first && code[i+1].op == p.second {
				code[i].op = p.fused
				i++
				break
			}
		}
	}
}

// fnBody is a decoded function body.
type fnBody struct {
	nParams  int
	nResults int
	nLocals  int // declared locals beyond parameters
	depth    int // deepest block/loop/if nesting: the most labels a frame holds
	code     []instr
}

// rtCtrl is a runtime control-stack entry.
type rtCtrl struct {
	isLoop bool
	start  int32 // loop: pc of the first body instruction
	cont   int32 // block/if: pc just past the matching end
	arity  int8
	height int32
}

// Instance is an instantiated module ready to execute.
type Instance struct {
	m       *Module
	bodies  []fnBody
	mem     []byte
	globals []uint64
	table   []int32 // function index per slot, -1 when uninitialized
	hosts   []*HostFunc

	// sigs holds each function's canonical type id and typeIDs each type
	// index's: the smallest index of an equal type, so call_indirect
	// checks a signature with one integer compare.
	sigs    []int32
	typeIDs []int32

	// Fuel is the remaining instruction budget, one unit per instruction
	// executed. It is charged once per straight-line run, at the control
	// transfer, frame exit or trap that ends it (see run). An invocation
	// costing C succeeds with a budget of C; a smaller budget returns
	// ErrFuel at the first transfer past it and leaves Fuel negative.
	// NewInstance seeds an effectively unlimited budget.
	Fuel int64

	// Execution state shared by all frames, reset by Invoke. Live values
	// are stack[:sp], live locals are locals[:nlocals], and ctrl holds
	// the labels of every active frame, innermost last.
	stack   []uint64
	sp      int
	locals  []uint64
	nlocals int
	ctrl    []rtCtrl
	frames  int
}

const maxFrames = 20000

// NewInstance validates m as Validate does, keeping each body as the
// validator decoded it with adjacent pairs fused, resolves imports
// against hosts (keyed "module.name"), and applies global, data, and
// element initialization.
func NewInstance(m *Module, hosts map[string]HostFunc) (*Instance, error) {
	in := &Instance{m: m, Fuel: 1 << 62, bodies: make([]fnBody, 0, len(m.Funcs))}
	err := m.validate(func(fi int, code []instr, depth int) {
		f := &m.Funcs[fi]
		body := fnBody{
			nParams:  len(m.Types[f.TypeIdx].Params),
			nResults: len(m.Types[f.TypeIdx].Results),
			nLocals:  len(f.Locals),
			depth:    depth,
			code:     slices.Clone(code),
		}
		fuse(body.code)
		in.bodies = append(in.bodies, body)
	})
	if err != nil {
		return nil, err
	}
	for i, t := range m.Types {
		id := i
		for j := range i {
			if m.Types[j].Equal(t) {
				id = j
				break
			}
		}
		in.typeIDs = append(in.typeIDs, int32(id))
	}
	for i := range m.Imports {
		im := &m.Imports[i]
		h, ok := hosts[im.Module+"."+im.Name]
		if !ok {
			return nil, fmt.Errorf("wasm: unresolved import %s.%s", im.Module, im.Name)
		}
		if !h.Type.Equal(m.Types[im.TypeIdx]) {
			return nil, fmt.Errorf("wasm: import %s.%s: host signature mismatch", im.Module, im.Name)
		}
		hc := h
		in.hosts = append(in.hosts, &hc)
		in.sigs = append(in.sigs, in.typeIDs[im.TypeIdx])
	}
	for _, f := range m.Funcs {
		in.sigs = append(in.sigs, in.typeIDs[f.TypeIdx])
	}
	for _, g := range m.Globals {
		_, v, _ := readConst(&reader{data: g.Init})
		in.globals = append(in.globals, v)
	}
	if m.HasMemory {
		in.mem = make([]byte, m.MemMin*PageSize)
	}
	for _, d := range m.Data {
		copy(in.mem[d.Offset:], d.Bytes)
	}
	if m.HasTable {
		in.table = make([]int32, m.TableMin)
		for i := range in.table {
			in.table[i] = -1
		}
	}
	for _, e := range m.Elems {
		for i, f := range e.Funcs {
			in.table[int(e.Offset)+i] = int32(f)
		}
	}
	return in, nil
}

// Invoke calls an exported function by name.
func (in *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	var fi = -1
	for _, e := range in.m.Exports {
		if e.Name == name && e.Kind == ExtFunc {
			fi = e.Idx
			break
		}
	}
	if fi < 0 {
		return nil, fmt.Errorf("wasm: no exported function %q", name)
	}
	sig, err := in.m.TypeOfFunc(fi)
	if err != nil {
		return nil, err
	}
	if len(args) != len(sig.Params) {
		return nil, fmt.Errorf("wasm: %q takes %d arguments, got %d", name, len(sig.Params), len(args))
	}
	// A trap leaves the execution state wherever it stopped, so every
	// invocation starts from scratch.
	in.sp, in.nlocals, in.ctrl, in.frames = 0, 0, in.ctrl[:0], 0
	copy(in.grow(0, len(args)), args)
	in.sp = len(args)
	if err := in.call(fi); err != nil {
		return nil, err
	}
	return append([]uint64(nil), in.stack[:in.sp]...), nil
}

// grow makes room for n values above sp on the value stack and returns it.
func (in *Instance) grow(sp, n int) []uint64 {
	if sp+n > len(in.stack) {
		st := make([]uint64, max(2*len(in.stack), sp+n, 256))
		copy(st, in.stack[:sp])
		in.stack = st
	}
	return in.stack
}

// call invokes function index fi taking its arguments from the top of
// the value stack and leaving its results there.
func (in *Instance) call(fi int) error {
	if fi < len(in.hosts) {
		return in.callHost(fi)
	}
	if in.frames >= maxFrames {
		return trapf("call stack exhausted")
	}
	in.frames++
	err := in.run(&in.bodies[fi-len(in.hosts)])
	in.frames--
	return err
}

func (in *Instance) callHost(fi int) error {
	h := in.hosts[fi]
	n := len(h.Type.Params)
	if in.sp < n {
		return trapf("host call underflow")
	}
	res, err := h.Fn(append([]uint64(nil), in.stack[in.sp-n:in.sp]...))
	if err != nil {
		return err
	}
	in.sp -= n
	copy(in.grow(in.sp, len(res))[in.sp:], res)
	in.sp += len(res)
	return nil
}

// pushLabel pushes c onto cs, which run has sized to hold every label of
// the frame.
func pushLabel(cs []rtCtrl, c rtCtrl) []rtCtrl {
	cs = cs[:len(cs)+1]
	cs[len(cs)-1] = c
	return cs
}

// branch transfers control to label depth d of the control stack cs,
// moving the label's results down to its entry height. It returns the new
// pc, stack pointer and control stack. The results move in a loop, not
// with copy, which would call memmove from straight.
func branch(st []uint64, sp int, cs []rtCtrl, d int) (int, int, []rtCtrl) {
	e := &cs[len(cs)-1-d]
	if e.isLoop {
		return int(e.start), int(e.height), cs[:len(cs)-d]
	}
	h, ar := int(e.height), int(e.arity)
	for i := range ar {
		st[h+i] = st[sp-ar+i]
	}
	return int(e.cont), h + ar, cs[:len(cs)-1-d]
}

// frame is the dispatch state of one call: run keeps it on the Go stack,
// and straight loads it into locals, advances it and stores it back.
type frame struct {
	code  []instr
	st    []uint64 // the value stack, live below sp
	loc   []uint64 // the call's locals
	cs    []rtCtrl // the control stack; the call's labels sit above cb
	cb    int
	pc    int
	start int // the pc at which the current straight-line run began
	sp    int
	fuel  int64
}

// run executes one call of body. Its arguments are the top values of the
// value stack; on return its results replace them. The frame lives on the
// Go stack: its locals are a slice of the shared locals arena and its
// labels the part of the shared control stack above cb. The value stack
// and control stack are written back to the instance around calls and on
// return. So is the fuel, which is also written back, with the stack
// pointer, when this frame traps or runs out.
//
// Fuel is charged once per straight-line run, the instructions from start
// through pc, at the transfer that ends it: an if, an else, a br, a taken
// br_if or a call. A run that a frame exit or a trap ends is charged on
// exit. A charge past the budget stops before the transfer takes effect,
// so no host function is called past it. Validation guarantees that every
// body ends in an end, so no instruction needs a guard of its own.
//
// Every instruction that calls no Go function runs in straight. Go saves
// no registers across a call, so a call anywhere in a dispatch loop makes
// the compiler store the loop's state on every dispatch; straight calls
// nothing and keeps it in registers. Labels go into a control stack sized
// on entry, so a label push calls nothing either. This loop runs the
// instructions straight leaves to it: calls, frame exits, traps, pushes
// that must grow the value stack, memory.grow and budget stops. A trap
// only records its message for the exit to build the error.
func (in *Instance) run(body *fnBody) error {
	st, sp := in.stack, in.sp
	if sp < body.nParams {
		return trapf("call underflow")
	}
	base := sp - body.nParams
	lb, nl := in.nlocals, body.nParams+body.nLocals
	if lb+nl > len(in.locals) {
		l := make([]uint64, max(2*len(in.locals), lb+nl, 256))
		copy(l, in.locals[:lb])
		in.locals = l
	}
	in.nlocals = lb + nl
	loc := in.locals[lb : lb+nl : lb+nl]
	copy(loc, st[base:sp])
	clear(loc[body.nParams:])
	cs := in.ctrl
	cb := len(cs)
	if cb+body.depth > cap(cs) {
		cs = make([]rtCtrl, cb, max(2*cap(cs), cb+body.depth, 64))
		copy(cs, in.ctrl)
	}
	f := frame{code: body.code, st: st, loc: loc, cs: cs, cb: cb, sp: base, fuel: in.Fuel}
	var trap string
loop:
	for {
		in.straight(&f)
		ins := &f.code[f.pc]
		switch ins.op {
		case OpCall, OpCallIndirect:
			fi := int(ins.imm)
			if ins.op == OpCallIndirect {
				idx := uint32(f.st[f.sp-1])
				if int(idx) >= len(in.table) {
					trap = "undefined element"
					break loop
				}
				target := in.table[idx]
				if target < 0 {
					trap = "uninitialized element"
					break loop
				}
				if in.sigs[target] != in.typeIDs[fi] {
					trap = "indirect call type mismatch"
					break loop
				}
				f.sp--
				fi = int(target)
			}
			if f.fuel -= int64(f.pc + 1 - f.start); f.fuel < 0 {
				break loop
			}
			in.sp, in.ctrl, in.Fuel = f.sp, f.cs, f.fuel
			if e := in.call(fi); e != nil {
				// The callee left the state where it stopped.
				return e
			}
			// The callee may have grown any of the shared stacks.
			f.st, f.sp, f.cs, f.fuel = in.stack, in.sp, in.ctrl, in.Fuel
			f.loc = in.locals[lb : lb+nl : lb+nl]
			f.pc++
			f.start = f.pc
		case OpEnd, OpReturn:
			// straight leaves an end only at the frame's own.
			break loop
		case OpBr, OpBrIf:
			// straight leaves a br_if only when it is taken, and either
			// branch only out of the frame or past the budget.
			if ins.op == OpBrIf {
				f.sp--
			}
			if int(ins.imm) < len(f.cs)-f.cb {
				f.fuel -= int64(f.pc + 1 - f.start)
			}
			break loop
		case OpIf, OpElse:
			// straight leaves these only past the budget.
			f.fuel -= int64(f.pc + 1 - f.start)
			break loop
		case OpLocalGet, OpGlobalGet, OpMemSize, OpI32Const, OpI64Const, OpF64Const,
			opLocalGetLocalGet, opLocalGetI64Const:
			// The value stack is full: grow it and rerun the instr.
			f.st = in.grow(f.sp, 2)
		case OpMemGrow:
			delta := uint32(f.st[f.sp-1])
			cur := len(in.mem) / PageSize
			limit := 1 << 16
			if in.m.MemMax > 0 {
				limit = in.m.MemMax
			}
			if int(delta) > limit-cur {
				f.st[f.sp-1] = uint64(uint32(0xFFFFFFFF))
			} else {
				in.mem = append(in.mem, make([]byte, int(delta)*PageSize)...)
				f.st[f.sp-1] = uint64(uint32(cur))
			}
			f.pc++
		case OpUnreachable:
			trap = "unreachable executed"
			break loop
		case OpI32Load, OpI64Load, OpF64Load, OpI32Store, OpI64Store, OpF64Store:
			trap = "out of bounds memory access"
			break loop
		case OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU:
			trap = "integer divide by zero"
			if f.st[f.sp-1] != 0 {
				trap = "integer overflow"
			}
			break loop
		default:
			trap = fmt.Sprintf("unimplemented opcode 0x%02x", ins.op)
			break loop
		}
	}
	if f.fuel >= 0 {
		// The run a frame exit or a trap ends.
		f.fuel -= int64(f.pc + 1 - f.start)
	}
	in.Fuel = f.fuel
	if f.fuel < 0 {
		in.sp = f.sp
		return ErrFuel
	}
	if trap != "" {
		in.sp = f.sp
		return &Trap{Msg: trap}
	}
	ar := body.nResults
	copy(f.st[base:], f.st[f.sp-ar:f.sp])
	in.sp, in.ctrl, in.nlocals = base+ar, f.cs[:cb], lb
	return nil
}

// straight runs f from f.pc, charging fuel as run does, up to the first
// instr it cannot run without a call or a check of run's: a call, a frame
// exit, a trap, a push onto a full value stack, memory.grow, or a
// transfer whose charge would pass the budget. It leaves f.pc at that
// instr, which has not run, with the value stack as the instr found it.
func (in *Instance) straight(f *frame) {
	code, st, loc, cs, cb := f.code, f.st, f.loc, f.cs, f.cb
	pc, start, sp, fuel := f.pc, f.start, f.sp, f.fuel
loop:
	for {
		ins := &code[pc]
		pc++
		switch ins.op {
		case OpNop:
		case OpBlock:
			cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
		case OpLoop:
			cs = pushLabel(cs, rtCtrl{
				isLoop: true, start: int32(pc), cont: ins.x + 1,
				arity: int8(ins.imm), height: int32(sp),
			})
		case OpIf:
			n := fuel - int64(pc-start)
			if n < 0 {
				break loop
			}
			fuel = n
			sp--
			if uint32(st[sp]) != 0 {
				cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
			} else if ins.y >= 0 {
				cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
				pc = int(ins.y) + 1
			} else {
				pc = int(ins.x) + 1
			}
			start = pc
		case OpElse:
			// True arm finished: jump to the matching end, which pops.
			n := fuel - int64(pc-start)
			if n < 0 {
				break loop
			}
			fuel = n
			pc = int(ins.x)
			start = pc
		case OpEnd:
			if len(cs) == cb {
				break loop
			}
			cs = cs[:len(cs)-1]
		case OpBr:
			n := fuel - int64(pc-start)
			if int(ins.imm) >= len(cs)-cb || n < 0 {
				break loop
			}
			fuel = n
			pc, sp, cs = branch(st, sp, cs, int(ins.imm))
			start = pc
		case OpBrIf:
			if uint32(st[sp-1]) == 0 {
				sp--
				break
			}
			n := fuel - int64(pc-start)
			if int(ins.imm) >= len(cs)-cb || n < 0 {
				break loop
			}
			fuel = n
			pc, sp, cs = branch(st, sp-1, cs, int(ins.imm))
			start = pc
		case OpDrop:
			sp--
		case OpSelect:
			sp -= 2
			if uint32(st[sp+1]) == 0 {
				st[sp-1] = st[sp]
			}
		case OpLocalGet:
			if sp == len(st) {
				break loop
			}
			st[sp] = loc[ins.imm]
			sp++
		case OpLocalSet:
			sp--
			loc[ins.imm] = st[sp]
		case OpLocalTee:
			loc[ins.imm] = st[sp-1]
		case OpGlobalGet:
			if sp == len(st) {
				break loop
			}
			st[sp] = in.globals[ins.imm]
			sp++
		case OpGlobalSet:
			sp--
			in.globals[ins.imm] = st[sp]
		case OpI32Load:
			a, ok := in.effAddr(st[sp-1], ins, 4)
			if !ok {
				break loop
			}
			st[sp-1] = uint64(binary.LittleEndian.Uint32(in.mem[a:]))
		case OpI64Load, OpF64Load:
			a, ok := in.effAddr(st[sp-1], ins, 8)
			if !ok {
				break loop
			}
			st[sp-1] = binary.LittleEndian.Uint64(in.mem[a:])
		case OpI32Store:
			a, ok := in.effAddr(st[sp-2], ins, 4)
			if !ok {
				break loop
			}
			sp -= 2
			binary.LittleEndian.PutUint32(in.mem[a:], uint32(st[sp+1]))
		case OpI64Store, OpF64Store:
			a, ok := in.effAddr(st[sp-2], ins, 8)
			if !ok {
				break loop
			}
			sp -= 2
			binary.LittleEndian.PutUint64(in.mem[a:], st[sp+1])
		case OpMemSize:
			if sp == len(st) {
				break loop
			}
			st[sp] = uint64(len(in.mem) / PageSize)
			sp++
		case OpI32Const:
			if sp == len(st) {
				break loop
			}
			// readInstr left i32 constants sign-extended in imm.
			st[sp] = uint64(uint32(ins.imm))
			sp++
		case OpI64Const, OpF64Const:
			if sp == len(st) {
				break loop
			}
			st[sp] = uint64(ins.imm)
			sp++

		// A fused instr runs both halves and steps pc past the second,
		// which is the next instr, so the run that holds it counts both.
		case opLocalGetLocalGet:
			if sp+2 > len(st) {
				break loop
			}
			st[sp] = loc[ins.imm]
			st[sp+1] = loc[code[pc].imm]
			sp += 2
			pc++
		case opLocalGetI64Const:
			if sp+2 > len(st) {
				break loop
			}
			st[sp] = loc[ins.imm]
			st[sp+1] = uint64(code[pc].imm)
			sp += 2
			pc++
		case opLocalSetLocalGet:
			loc[ins.imm] = st[sp-1]
			st[sp-1] = loc[code[pc].imm]
			pc++
		case opI64ConstI64Add:
			st[sp-1] += uint64(ins.imm)
			pc++

		case OpI32Eqz:
			st[sp-1] = b2i(uint32(st[sp-1]) == 0)
		case OpI32Eq:
			sp--
			st[sp-1] = b2i(uint32(st[sp-1]) == uint32(st[sp]))
		case OpI32Ne:
			sp--
			st[sp-1] = b2i(uint32(st[sp-1]) != uint32(st[sp]))
		case OpI32Add:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(st[sp]))
		case OpI32Sub:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) - uint32(st[sp]))
		case OpI32And:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) & uint32(st[sp]))
		case OpI32Or:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) | uint32(st[sp]))
		case OpI64Eqz:
			st[sp-1] = b2i(st[sp-1] == 0)
		case OpI64Eq:
			sp--
			st[sp-1] = b2i(st[sp-1] == st[sp])
		case OpI64Ne:
			sp--
			st[sp-1] = b2i(st[sp-1] != st[sp])
		case OpI64LtS:
			sp--
			st[sp-1] = b2i(int64(st[sp-1]) < int64(st[sp]))
		case OpI64LtU:
			sp--
			st[sp-1] = b2i(st[sp-1] < st[sp])
		case OpI64GtS:
			sp--
			st[sp-1] = b2i(int64(st[sp-1]) > int64(st[sp]))
		case OpI64GtU:
			sp--
			st[sp-1] = b2i(st[sp-1] > st[sp])
		case OpI64LeS:
			sp--
			st[sp-1] = b2i(int64(st[sp-1]) <= int64(st[sp]))
		case OpI64LeU:
			sp--
			st[sp-1] = b2i(st[sp-1] <= st[sp])
		case OpI64GeS:
			sp--
			st[sp-1] = b2i(int64(st[sp-1]) >= int64(st[sp]))
		case OpI64GeU:
			sp--
			st[sp-1] = b2i(st[sp-1] >= st[sp])
		case OpF64Eq:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) == f64(st[sp]))
		case OpF64Ne:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) != f64(st[sp]))
		case OpF64Lt:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) < f64(st[sp]))
		case OpF64Gt:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) > f64(st[sp]))
		case OpF64Le:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) <= f64(st[sp]))
		case OpF64Ge:
			sp--
			st[sp-1] = b2i(f64(st[sp-1]) >= f64(st[sp]))
		case OpI64Add:
			sp--
			st[sp-1] += st[sp]
		case OpI64Sub:
			sp--
			st[sp-1] -= st[sp]
		case OpI64Mul:
			sp--
			st[sp-1] *= st[sp]
		case OpI64DivS:
			b, c := int64(st[sp-2]), int64(st[sp-1])
			if c == 0 || b == math.MinInt64 && c == -1 {
				break loop
			}
			sp--
			st[sp-1] = uint64(b / c)
		case OpI64DivU:
			if st[sp-1] == 0 {
				break loop
			}
			sp--
			st[sp-1] /= st[sp]
		case OpI64RemS:
			b, c := int64(st[sp-2]), int64(st[sp-1])
			if c == 0 {
				break loop
			}
			sp--
			if c == -1 {
				st[sp-1] = 0
			} else {
				st[sp-1] = uint64(b % c)
			}
		case OpI64RemU:
			if st[sp-1] == 0 {
				break loop
			}
			sp--
			st[sp-1] %= st[sp]
		case OpI64And:
			sp--
			st[sp-1] &= st[sp]
		case OpI64Or:
			sp--
			st[sp-1] |= st[sp]
		case OpI64Xor:
			sp--
			st[sp-1] ^= st[sp]
		case OpI64Shl:
			sp--
			st[sp-1] <<= st[sp] & 63
		case OpI64ShrS:
			sp--
			st[sp-1] = uint64(int64(st[sp-1]) >> (st[sp] & 63))
		case OpI64ShrU:
			sp--
			st[sp-1] >>= st[sp] & 63
		case OpF64Abs:
			st[sp-1] &^= 1 << 63
		case OpF64Neg:
			st[sp-1] ^= 1 << 63
		case OpF64Sqrt:
			st[sp-1] = math.Float64bits(math.Sqrt(f64(st[sp-1])))
		case OpF64Add:
			sp--
			st[sp-1] = math.Float64bits(f64(st[sp-1]) + f64(st[sp]))
		case OpF64Sub:
			sp--
			st[sp-1] = math.Float64bits(f64(st[sp-1]) - f64(st[sp]))
		case OpF64Mul:
			sp--
			st[sp-1] = math.Float64bits(f64(st[sp-1]) * f64(st[sp]))
		case OpF64Div:
			sp--
			st[sp-1] = math.Float64bits(f64(st[sp-1]) / f64(st[sp]))
		case OpI32WrapI64, OpI64ExtendI32U:
			st[sp-1] = uint64(uint32(st[sp-1]))
		case OpI64ExtendI32S:
			st[sp-1] = uint64(int64(int32(uint32(st[sp-1]))))
		case OpF32DemoteF64:
			st[sp-1] = uint64(math.Float32bits(float32(f64(st[sp-1]))))
		case OpF64ConvertI64S:
			st[sp-1] = math.Float64bits(float64(int64(st[sp-1])))
		case OpF64ConvertI64U:
			st[sp-1] = math.Float64bits(float64(st[sp-1]))
		case OpF64PromoteF32:
			st[sp-1] = math.Float64bits(float64(math.Float32frombits(uint32(st[sp-1]))))
		case OpI64ReinterpretF64, OpF64ReinterpretI64:
			// Bit pattern is the representation: no-op.
		default:
			// Unreachable, return, calls, memory.grow and any unknown op.
			break loop
		}
	}
	f.pc, f.start, f.sp, f.fuel, f.cs = pc-1, start, sp, fuel, cs
}

// effAddr returns the address of a size-byte access at base plus ins's
// offset, and whether it is in bounds.
func (in *Instance) effAddr(base uint64, ins *instr, size uint64) (uint64, bool) {
	a := uint64(uint32(base)) + uint64(ins.imm)
	return a, a+size <= uint64(len(in.mem))
}

func f64(v uint64) float64 { return math.Float64frombits(v) }

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
