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

// fnBody is a pre-decoded function body.
type fnBody struct {
	nParams  int
	nResults int
	nLocals  int // declared locals beyond parameters
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
		body, err := predecode(m.Funcs[i].Code)
		if err != nil {
			return nil, fmt.Errorf("wasm: function %d: %w", len(m.Imports)+i, err)
		}
		sig := m.Types[m.Funcs[i].TypeIdx]
		in.sigs = append(in.sigs, in.typeIDs[m.Funcs[i].TypeIdx])
		in.bodies = append(in.bodies, fnBody{
			nParams:  len(sig.Params),
			nResults: len(sig.Results),
			nLocals:  len(m.Funcs[i].Locals),
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

// predecode turns body bytes into instrs with block/if ends resolved.
func predecode(code []byte) ([]instr, error) {
	var out []instr
	var open []int // indices of unpatched block/loop/if instrs
	r := &reader{data: code}
	for !r.done() {
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		ins := instr{op: op, y: -1}
		switch op {
		case OpBlock, OpLoop, OpIf:
			bt, err := r.byte()
			if err != nil {
				return nil, err
			}
			if bt != BlockEmpty {
				switch ValType(bt) {
				case I32, I64, F32, F64:
					ins.imm = 1 // arity
				default:
					return nil, fmt.Errorf("invalid block type")
				}
			}
			open = append(open, len(out))
		case OpElse:
			if len(open) == 0 {
				return nil, fmt.Errorf("else outside if")
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
				return nil, err
			}
			ins.imm = int64(v)
		case OpCallIndirect:
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			ins.imm = int64(v)
			if _, err := r.byte(); err != nil { // table index
				return nil, err
			}
		case OpI32Load, OpI64Load, OpF64Load, OpI32Store, OpI64Store, OpF64Store:
			if _, err := r.u32(); err != nil { // align
				return nil, err
			}
			off, err := r.u32()
			if err != nil {
				return nil, err
			}
			ins.imm = int64(off)
		case OpMemSize, OpMemGrow:
			if _, err := r.byte(); err != nil {
				return nil, err
			}
		case OpI32Const, OpI64Const:
			v, err := r.sleb()
			if err != nil {
				return nil, err
			}
			ins.imm = v
		case OpF64Const:
			b, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			ins.imm = int64(binary.LittleEndian.Uint64(b))
		default:
			if _, ok := simpleOps[op]; !ok {
				switch op {
				case OpUnreachable, OpNop, OpReturn, OpDrop, OpSelect:
				default:
					return nil, fmt.Errorf("unknown opcode 0x%02x", op)
				}
			}
		}
		out = append(out, ins)
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("unclosed block")
	}
	return out, nil
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
// instance around calls and on return.
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
	pc := 0
loop:
	for pc < len(code) {
		if in.Fuel <= 0 {
			return ErrFuel
		}
		in.Fuel--
		ins := &code[pc]
		pc++
		switch ins.op {
		case OpUnreachable:
			return trapf("unreachable executed")
		case OpNop:
		case OpBlock:
			cs = append(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
		case OpLoop:
			cs = append(cs, rtCtrl{
				isLoop: true, start: int32(pc), cont: ins.x + 1,
				arity: int8(ins.imm), height: int32(sp),
			})
		case OpIf:
			sp--
			if uint32(st[sp]) != 0 {
				cs = append(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
			} else if ins.y >= 0 {
				cs = append(cs, rtCtrl{cont: ins.x + 1, arity: int8(ins.imm), height: int32(sp)})
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
					return trapf("undefined element")
				}
				target := in.table[idx]
				if target < 0 {
					return trapf("uninitialized element")
				}
				if in.sigs[target] != in.typeIDs[fi] {
					return trapf("indirect call type mismatch")
				}
				fi = int(target)
			}
			in.sp, in.ctrl = sp, cs
			if err := in.call(fi); err != nil {
				return err
			}
			// The callee may have grown any of the shared stacks.
			st, sp, cs = in.stack, in.sp, in.ctrl
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
			a, err := in.effAddr(st[sp-1], ins, 4)
			if err != nil {
				return err
			}
			st[sp-1] = uint64(binary.LittleEndian.Uint32(in.mem[a:]))
		case OpI64Load, OpF64Load:
			a, err := in.effAddr(st[sp-1], ins, 8)
			if err != nil {
				return err
			}
			st[sp-1] = binary.LittleEndian.Uint64(in.mem[a:])
		case OpI32Store:
			sp -= 2
			a, err := in.effAddr(st[sp], ins, 4)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(in.mem[a:], uint32(st[sp+1]))
		case OpI64Store, OpF64Store:
			sp -= 2
			a, err := in.effAddr(st[sp], ins, 8)
			if err != nil {
				return err
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
				return trapf("integer divide by zero")
			}
			if b == math.MinInt64 && c == -1 {
				return trapf("integer overflow")
			}
			st[sp-1] = uint64(b / c)
		case OpI64DivU:
			sp--
			if st[sp] == 0 {
				return trapf("integer divide by zero")
			}
			st[sp-1] /= st[sp]
		case OpI64RemS:
			sp--
			b, c := int64(st[sp-1]), int64(st[sp])
			if c == 0 {
				return trapf("integer divide by zero")
			}
			if c == -1 {
				st[sp-1] = 0
			} else {
				st[sp-1] = uint64(b % c)
			}
		case OpI64RemU:
			sp--
			if st[sp] == 0 {
				return trapf("integer divide by zero")
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
			return trapf("unimplemented opcode 0x%02x", ins.op)
		}
	}
	ar := body.nResults
	copy(st[base:], st[sp-ar:sp])
	in.sp, in.ctrl, in.nlocals = base+ar, cs[:cb], lb
	return nil
}

// effAddr bounds-checks a size-byte access at base plus ins's offset.
func (in *Instance) effAddr(base uint64, ins *instr, size uint64) (uint64, error) {
	a := uint64(uint32(base)) + uint64(ins.imm)
	if a+size > uint64(len(in.mem)) {
		return 0, trapf("out of bounds memory access")
	}
	return a, nil
}

func f64(v uint64) float64 { return math.Float64frombits(v) }

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
