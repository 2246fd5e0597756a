package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// instr is one pre-decoded instruction.
type instr struct {
	op  byte
	imm int64 // index / depth / constant (f64 as bits) / memarg offset
	x   int32 // structured control: matching end index
	y   int32 // if: else index, or -1
}

// Fused opcodes. Each stands for the first instr of an adjacent pair that
// predecode fused; the second instr stays in place after it. They use byte
// values no wasm opcode uses and occur only in predecoded code. The pairs
// are the most frequent adjacent pairs executed by the benchmark suite.
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

// fnBody is a pre-decoded function body.
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

	// Fuel is the remaining instruction budget; execution returns ErrFuel
	// when it runs out. NewInstance seeds an effectively unlimited budget.
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

// NewInstance decodes bodies, resolves imports against hosts (keyed
// "module.name"), and applies global, data, and element initialization.
// The module must have been validated.
func NewInstance(m *Module, hosts map[string]HostFunc) (*Instance, error) {
	in := &Instance{m: m, Fuel: 1 << 62}
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
	for i := range m.Funcs {
		body, depth, err := predecode(m.Funcs[i].Code)
		if err != nil {
			return nil, fmt.Errorf("wasm: function %d: %w", len(m.Imports)+i, err)
		}
		sig := m.Types[m.Funcs[i].TypeIdx]
		in.sigs = append(in.sigs, in.typeIDs[m.Funcs[i].TypeIdx])
		in.bodies = append(in.bodies, fnBody{
			nParams:  len(sig.Params),
			nResults: len(sig.Results),
			nLocals:  len(m.Funcs[i].Locals),
			depth:    depth,
			code:     body,
		})
	}
	for _, g := range m.Globals {
		v, err := constValue(g.Init)
		if err != nil {
			return nil, err
		}
		in.globals = append(in.globals, v)
	}
	if m.HasMemory {
		in.mem = make([]byte, m.MemMin*PageSize)
	}
	for _, d := range m.Data {
		if int(d.Offset)+len(d.Bytes) > len(in.mem) {
			return nil, fmt.Errorf("wasm: data segment out of bounds")
		}
		copy(in.mem[d.Offset:], d.Bytes)
	}
	if m.HasTable {
		in.table = make([]int32, m.TableMin)
		for i := range in.table {
			in.table[i] = -1
		}
	}
	for _, e := range m.Elems {
		if int(e.Offset)+len(e.Funcs) > len(in.table) {
			return nil, fmt.Errorf("wasm: element segment out of bounds")
		}
		for i, f := range e.Funcs {
			in.table[int(e.Offset)+i] = int32(f)
		}
	}
	return in, nil
}

func constValue(init []byte) (uint64, error) {
	r := &reader{data: init}
	op, _ := r.byte()
	switch op {
	case OpI32Const:
		v, err := r.sleb()
		if err != nil {
			return 0, err
		}
		return uint64(uint32(v)), nil
	case OpI64Const:
		v, err := r.sleb()
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	case OpF64Const:
		b, err := r.bytes(8)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	return 0, fmt.Errorf("wasm: unsupported constant expression")
}

// predecode turns body bytes into instrs with block/if ends resolved and
// adjacent pairs fused. It also returns the deepest block nesting.
func predecode(code []byte) ([]instr, int, error) {
	var out []instr
	var open []int // indices of unpatched block/loop/if instrs
	depth := 0
	r := &reader{data: code}
	for !r.done() {
		op, err := r.byte()
		if err != nil {
			return nil, 0, err
		}
		ins := instr{op: op, y: -1}
		switch op {
		case OpBlock, OpLoop, OpIf:
			bt, err := r.byte()
			if err != nil {
				return nil, 0, err
			}
			if bt != BlockEmpty {
				switch ValType(bt) {
				case I32, I64, F32, F64:
					ins.imm = 1 // arity
				default:
					return nil, 0, fmt.Errorf("invalid block type")
				}
			}
			open = append(open, len(out))
			depth = max(depth, len(open))
		case OpElse:
			if len(open) == 0 {
				return nil, 0, fmt.Errorf("else outside if")
			}
			out[open[len(open)-1]].y = int32(len(out))
		case OpEnd:
			if len(open) > 0 {
				i := open[len(open)-1]
				open = open[:len(open)-1]
				out[i].x = int32(len(out))
				if out[i].y >= 0 {
					// The else instr also needs the end index to jump over
					// the false arm when the true arm finishes.
					out[out[i].y].x = int32(len(out))
				}
			}
		case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee,
			OpGlobalGet, OpGlobalSet:
			v, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			ins.imm = int64(v)
		case OpCallIndirect:
			v, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			ins.imm = int64(v)
			if _, err := r.byte(); err != nil { // table index
				return nil, 0, err
			}
		case OpI32Load, OpI64Load, OpF64Load, OpI32Store, OpI64Store, OpF64Store:
			if _, err := r.u32(); err != nil { // align
				return nil, 0, err
			}
			off, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			ins.imm = int64(off)
		case OpMemSize, OpMemGrow:
			if _, err := r.byte(); err != nil {
				return nil, 0, err
			}
		case OpI32Const, OpI64Const:
			v, err := r.sleb()
			if err != nil {
				return nil, 0, err
			}
			ins.imm = v
		case OpF64Const:
			b, err := r.bytes(8)
			if err != nil {
				return nil, 0, err
			}
			ins.imm = int64(binary.LittleEndian.Uint64(b))
		default:
			if _, ok := simpleOps[op]; !ok {
				switch op {
				case OpUnreachable, OpNop, OpReturn, OpDrop, OpSelect:
				default:
					return nil, 0, fmt.Errorf("unknown opcode 0x%02x", op)
				}
			}
		}
		out = append(out, ins)
	}
	if len(open) != 0 {
		return nil, 0, fmt.Errorf("unclosed block")
	}
	fuse(out)
	return out, depth, nil
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
// pc, stack pointer and control stack.
func branch(st []uint64, sp int, cs []rtCtrl, d int) (int, int, []rtCtrl) {
	e := &cs[len(cs)-1-d]
	if e.isLoop {
		return int(e.start), int(e.height), cs[:len(cs)-d]
	}
	ar := int(e.arity)
	copy(st[e.height:], st[sp-ar:sp])
	return int(e.cont), int(e.height) + ar, cs[:len(cs)-1-d]
}

// run executes one call of body. Its arguments are the top values of the
// value stack; on return its results replace them. The frame lives on the
// Go stack: its locals are a slice of the shared locals arena and its
// labels the part of the shared control stack above cb. The value stack
// and control stack are held in local variables and written back to the
// instance around calls and on return. So is the fuel, which is also
// written back, with the stack pointer, when this frame traps or runs out.
//
// The dispatch loop calls nothing on its hot paths but in.call: labels go
// into a control stack sized on entry, and a trap only records its
// message for the exit to build the error. A call the loop could return
// from in many places would make the compiler save the loop's state on
// every dispatch.
func (in *Instance) run(body *fnBody) error {
	code := body.code
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
	sp = base
	cs := in.ctrl
	cb := len(cs)
	if cb+body.depth > cap(cs) {
		cs = make([]rtCtrl, cb, max(2*cap(cs), cb+body.depth, 64))
		copy(cs, in.ctrl)
	}
	pc := 0
	fuel := in.Fuel
	var err error
	var trap string
loop:
	for pc < len(code) {
		if fuel <= 0 {
			err = ErrFuel
			break
		}
		fuel--
		ins := &code[pc]
		pc++
		switch ins.op {
		case OpUnreachable:
			trap = "unreachable executed"
			break loop
		case OpNop:
		case OpBlock:
			cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
		case OpLoop:
			cs = pushLabel(cs, rtCtrl{
				isLoop: true, start: int32(pc), cont: ins.x + 1,
				arity: int8(ins.imm), height: int32(sp),
			})
		case OpIf:
			sp--
			if uint32(st[sp]) != 0 {
				cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
			} else if ins.y >= 0 {
				cs = pushLabel(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
				pc = int(ins.y) + 1
			} else {
				pc = int(ins.x) + 1
			}
		case OpElse:
			// True arm finished: jump to the matching end, which pops.
			pc = int(ins.x)
		case OpEnd:
			if len(cs) == cb {
				break loop
			}
			cs = cs[:len(cs)-1]
		case OpBr:
			if int(ins.imm) >= len(cs)-cb {
				break loop
			}
			pc, sp, cs = branch(st, sp, cs, int(ins.imm))
		case OpBrIf:
			sp--
			if uint32(st[sp]) != 0 {
				if int(ins.imm) >= len(cs)-cb {
					break loop
				}
				pc, sp, cs = branch(st, sp, cs, int(ins.imm))
			}
		case OpReturn:
			break loop
		case OpCall, OpCallIndirect:
			fi := int(ins.imm)
			if ins.op == OpCallIndirect {
				sp--
				idx := uint32(st[sp])
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
				fi = int(target)
			}
			in.sp, in.ctrl, in.Fuel = sp, cs, fuel
			if e := in.call(fi); e != nil {
				// The callee left the state where it stopped.
				return e
			}
			// The callee may have grown any of the shared stacks.
			st, sp, cs, fuel = in.stack, in.sp, in.ctrl, in.Fuel
			loc = in.locals[lb : lb+nl : lb+nl]
		case OpDrop:
			sp--
		case OpSelect:
			sp -= 2
			if uint32(st[sp+1]) == 0 {
				st[sp-1] = st[sp]
			}
		case OpLocalGet:
			if sp == len(st) {
				st = in.grow(sp, 1)
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
				st = in.grow(sp, 1)
			}
			st[sp] = in.globals[ins.imm]
			sp++
		case OpGlobalSet:
			sp--
			in.globals[ins.imm] = st[sp]
		case OpI32Load:
			a, ok := in.effAddr(st[sp-1], ins, 4)
			if !ok {
				trap = "out of bounds memory access"
				break loop
			}
			st[sp-1] = uint64(binary.LittleEndian.Uint32(in.mem[a:]))
		case OpI64Load, OpF64Load:
			a, ok := in.effAddr(st[sp-1], ins, 8)
			if !ok {
				trap = "out of bounds memory access"
				break loop
			}
			st[sp-1] = binary.LittleEndian.Uint64(in.mem[a:])
		case OpI32Store:
			sp -= 2
			a, ok := in.effAddr(st[sp], ins, 4)
			if !ok {
				trap = "out of bounds memory access"
				break loop
			}
			binary.LittleEndian.PutUint32(in.mem[a:], uint32(st[sp+1]))
		case OpI64Store, OpF64Store:
			sp -= 2
			a, ok := in.effAddr(st[sp], ins, 8)
			if !ok {
				trap = "out of bounds memory access"
				break loop
			}
			binary.LittleEndian.PutUint64(in.mem[a:], st[sp+1])
		case OpMemSize:
			if sp == len(st) {
				st = in.grow(sp, 1)
			}
			st[sp] = uint64(len(in.mem) / PageSize)
			sp++
		case OpMemGrow:
			delta := uint32(st[sp-1])
			cur := len(in.mem) / PageSize
			limit := 1 << 16
			if in.m.MemMax > 0 {
				limit = in.m.MemMax
			}
			if int(delta) > limit-cur {
				st[sp-1] = uint64(uint32(0xFFFFFFFF))
			} else {
				in.mem = append(in.mem, make([]byte, int(delta)*PageSize)...)
				st[sp-1] = uint64(uint32(cur))
			}
		case OpI32Const, OpI64Const, OpF64Const:
			// Predecoding left i32 constants sign-extended in imm.
			v := uint64(ins.imm)
			if ins.op == OpI32Const {
				v = uint64(uint32(ins.imm))
			}
			if sp == len(st) {
				st = in.grow(sp, 1)
			}
			st[sp] = v
			sp++

		// A fused instr runs its first half, charged by the loop header,
		// then charges and runs the second half, which is the next instr.
		// Running out of fuel between the halves stops before the second,
		// as it would unfused.
		case opLocalGetLocalGet:
			if sp+2 > len(st) {
				st = in.grow(sp, 2)
			}
			st[sp] = loc[ins.imm]
			sp++
			if fuel <= 0 {
				err = ErrFuel
				break loop
			}
			fuel--
			st[sp] = loc[code[pc].imm]
			sp++
			pc++
		case opLocalGetI64Const:
			if sp+2 > len(st) {
				st = in.grow(sp, 2)
			}
			st[sp] = loc[ins.imm]
			sp++
			if fuel <= 0 {
				err = ErrFuel
				break loop
			}
			fuel--
			st[sp] = uint64(code[pc].imm)
			sp++
			pc++
		case opLocalSetLocalGet:
			loc[ins.imm] = st[sp-1]
			if fuel <= 0 {
				sp--
				err = ErrFuel
				break loop
			}
			fuel--
			st[sp-1] = loc[code[pc].imm]
			pc++
		case opI64ConstI64Add:
			if fuel <= 0 {
				if sp == len(st) {
					st = in.grow(sp, 1)
				}
				st[sp] = uint64(ins.imm)
				sp++
				err = ErrFuel
				break loop
			}
			fuel--
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
			sp--
			b, c := int64(st[sp-1]), int64(st[sp])
			if c == 0 {
				trap = "integer divide by zero"
				break loop
			}
			if b == math.MinInt64 && c == -1 {
				trap = "integer overflow"
				break loop
			}
			st[sp-1] = uint64(b / c)
		case OpI64DivU:
			sp--
			if st[sp] == 0 {
				trap = "integer divide by zero"
				break loop
			}
			st[sp-1] /= st[sp]
		case OpI64RemS:
			sp--
			b, c := int64(st[sp-1]), int64(st[sp])
			if c == 0 {
				trap = "integer divide by zero"
				break loop
			}
			if c == -1 {
				st[sp-1] = 0
			} else {
				st[sp-1] = uint64(b % c)
			}
		case OpI64RemU:
			sp--
			if st[sp] == 0 {
				trap = "integer divide by zero"
				break loop
			}
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
			err = trapf("unimplemented opcode 0x%02x", ins.op)
			break loop
		}
	}
	in.Fuel = fuel
	if trap != "" {
		err = &Trap{Msg: trap}
	}
	if err != nil {
		in.sp = sp
		return err
	}
	ar := body.nResults
	copy(st[base:], st[sp-ar:sp])
	in.sp, in.ctrl, in.nlocals = base+ar, cs[:cb], lb
	return nil
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
