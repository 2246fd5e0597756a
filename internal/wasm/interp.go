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

// HostFunc implements an imported function. Arguments and results are
// passed as raw 64-bit values (f64 as IEEE bits, i32 zero-extended).
type HostFunc struct {
	Type FuncType
	Fn   func(args []uint64) ([]uint64, error)
}

// instr is one decoded instruction (see readInstr and checker).
type instr struct {
	op  byte
	imm int64 // index / depth / constant (f64 as bits) / memarg offset; block arity
}

// fn is a function as the engine calls it: its register code and frame
// shape, or, for an import, none.
type fn struct {
	code []rop // nil for an import
	np   int   // parameters
	nl   int   // parameters and declared locals
	size int   // frame slots: nl plus the deepest operand stack
}

// caller is an explicit frame-stack entry: where a call returns to. It
// holds no pointer, so pushing one needs no write barrier.
type caller struct {
	fn    int32 // the calling function
	pc    int32
	start int32 // the original index at which the caller's next run begins
	dst   int32 // the caller's slot for the result
	base  int
}

// Instance is an instantiated module ready to execute.
type Instance struct {
	m       *Module
	fns     []fn // every function, imports first
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

	// Execution state, reset by Invoke: the frame arena, in which each
	// call's frame starts at its caller's argument slots, and the frame
	// stack, one entry per active caller.
	st    []uint64
	calls []caller
}

// maxFrames bounds the active wasm frames of an invocation, its entry
// included.
const maxFrames = 20000

// NewInstance validates m as Validate does, translating each body into
// register code as it is validated, resolves imports against hosts
// (keyed "module.name"), and applies global, data, and element
// initialization.
func NewInstance(m *Module, hosts map[string]HostFunc) (*Instance, error) {
	in := &Instance{m: m, Fuel: 1 << 62, fns: make([]fn, len(m.Imports), len(m.Imports)+len(m.Funcs))}
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
	tr := &translator{m: m, types: in.typeIDs, opds: make([]operand, 0, 16), labels: make([]label, 0, 16)}
	err := m.validate(func(fi int, code []instr) {
		f := &m.Funcs[fi]
		rc, size := tr.translate(fi, code)
		np := len(m.Types[f.TypeIdx].Params)
		in.fns = append(in.fns, fn{code: rc, np: np, nl: np + len(f.Locals), size: size})
	})
	if err != nil {
		return nil, err
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
	f := &in.fns[fi]
	if f.code == nil {
		return in.hosts[fi].Fn(slices.Clone(args))
	}
	// A trap leaves the frame stack wherever it stopped, so every
	// invocation starts from scratch.
	in.calls = in.calls[:0]
	in.reserve(0, f.size)
	copy(in.st, args)
	clear(in.st[f.np:f.nl])
	s := state{code: f.code, fr: in.st, fn: fi, fuel: in.Fuel}
	err = in.run(&s)
	in.Fuel = s.fuel
	if err != nil {
		return nil, err
	}
	return slices.Clone(in.st[:len(sig.Results)]), nil
}

// reserve makes the frame arena hold n slots from base.
func (in *Instance) reserve(base, n int) {
	if base+n > len(in.st) {
		st := make([]uint64, max(2*len(in.st), base+n, 256))
		copy(st, in.st)
		in.st = st
	}
}

// state is the dispatch state of a run: the running function, its code
// and slots, the next rop, the frame's base in the arena, the original
// index at which the current straight-line run began, and the fuel left.
type state struct {
	code  []rop
	fr    []uint64
	fn    int
	pc    int
	base  int
	start int64
	fuel  int64
}

// run executes the invocation s holds until its entry frame returns.
//
// Fuel is charged once per straight-line run, the original instructions
// from start to the x of the rop that ends it, at that rop: an if, a br,
// a taken br_if, a call or a return, or a trap. A charge past the budget
// stops before the rop takes effect, so no host function is called past
// it.
//
// Every rop that calls no Go function runs in exec, wasm calls and
// returns included. Go saves no registers across a call, so a call
// anywhere in a dispatch loop makes the compiler store the loop's state
// on every dispatch; exec calls nothing and keeps it in registers. This
// loop runs the rops exec leaves to it: host calls, calls that must grow
// the frame arena or frame stack, the entry frame's return, traps,
// memory.grow and budget stops.
func (in *Instance) run(s *state) error {
	for {
		in.exec(s)
		o := &s.code[s.pc]
		if o.op == rMemGrow {
			s.fr[o.c] = in.growMemory(uint32(s.fr[o.a]))
			s.pc++
			continue
		}
		fuel := s.fuel - (int64(o.x) - s.start)
		switch o.op {
		case rCall, rCallInd:
			fi, trap := in.callee(s, o)
			if trap == "" && fuel >= 0 && in.fns[fi].code != nil && len(in.calls)+1 < maxFrames {
				// exec stopped for room: make it, and let exec call.
				in.reserve(s.base+int(o.a), in.fns[fi].size)
				s.fr = in.st[s.base:]
				if len(in.calls) == cap(in.calls) {
					// The frame stack never holds more than maxFrames-1
					// callers, so exec stops at the limit.
					c := make([]caller, len(in.calls), min(max(2*cap(in.calls), 16), maxFrames-1))
					copy(c, in.calls)
					in.calls = c
				}
				continue
			}
			s.fuel = fuel
			switch {
			case fuel < 0:
				return ErrFuel
			case trap != "":
				return &Trap{Msg: trap}
			case in.fns[fi].code != nil:
				return &Trap{Msg: "call stack exhausted"}
			}
			if err := in.callHost(fi, s.fr[o.a:], &s.fr[o.c]); err != nil {
				return err
			}
			s.pc++
			s.start = int64(o.x)
		case rRet, rRetIf:
			// exec leaves a return only at the entry frame's exit or
			// past the budget.
			if s.fuel = fuel; fuel < 0 {
				return ErrFuel
			}
			s.fr[0] = s.fr[o.b]
			return nil
		case rBr, rBrIf, rIf, rIfLtS, rIfLtSK, rIfEq, rIfEqK, rIfEqz, rIfF64Gt:
			// exec leaves these only past the budget.
			s.fuel = fuel
			return ErrFuel
		default:
			if s.fuel = fuel; fuel < 0 {
				return ErrFuel
			}
			return &Trap{Msg: trapMessage(o, s.fr)}
		}
	}
}

// callee returns the function a call rop calls, or why it traps.
func (in *Instance) callee(s *state, o *rop) (int, string) {
	if o.op == rCall {
		return int(o.k), ""
	}
	i := uint32(s.fr[o.b])
	switch {
	case int(i) >= len(in.table):
		return 0, "undefined element"
	case in.table[i] < 0:
		return 0, "uninitialized element"
	case in.sigs[in.table[i]] != int32(o.k):
		return 0, "indirect call type mismatch"
	}
	return int(in.table[i]), ""
}

// callHost calls import fi with its arguments at the start of args and
// stores its result, if it has one, in *dst.
func (in *Instance) callHost(fi int, args []uint64, dst *uint64) error {
	h := in.hosts[fi]
	res, err := h.Fn(slices.Clone(args[:len(h.Type.Params)]))
	if err == nil && len(res) > 0 {
		*dst = res[0]
	}
	return err
}

// growMemory runs memory.grow by delta pages.
func (in *Instance) growMemory(delta uint32) uint64 {
	cur := len(in.mem) / PageSize
	limit := 1 << 16
	if in.m.MemMax > 0 {
		limit = in.m.MemMax
	}
	if int(delta) > limit-cur {
		return uint64(uint32(0xFFFFFFFF))
	}
	in.mem = append(in.mem, make([]byte, int(delta)*PageSize)...)
	return uint64(uint32(cur))
}

// trapMessage says why the trapping rop o traps on frame fr.
func trapMessage(o *rop, fr []uint64) string {
	switch o.op {
	case rUnreachable:
		return "unreachable executed"
	case rI32Load, rI64Load, rI32Store, rI64Store, rI64StoreK:
		return "out of bounds memory access"
	case rI64DivS, rI64DivU, rI64RemS, rI64RemU:
		if fr[o.b] != 0 {
			return "integer overflow"
		}
		return "integer divide by zero"
	}
	return fmt.Sprintf("unimplemented register op %d", o.op)
}

// exec runs s from s.pc, charging fuel as run does, up to the first rop
// it cannot run without a call or a check of run's: a host call, a call
// that needs a larger arena or frame stack or would pass maxFrames, the
// entry frame's return, a trap, memory.grow, or a transfer whose charge
// would pass the budget. It leaves s.pc at that rop, which has not run.
func (in *Instance) exec(s *state) {
	code, fr, pc, start, fuel := s.code, s.fr, s.pc, s.start, s.fuel
	mem, globals := in.mem, in.globals
loop:
	for {
		o := &code[pc]
		pc++
		switch o.op {
		case rCopy:
			fr[o.c] = fr[o.a]
		case rConst:
			fr[o.c] = o.k
		case rGlobalGet:
			fr[o.c] = globals[o.k]
		case rGlobalSet:
			globals[o.k] = fr[o.a]
		case rI32Load:
			a := uint64(uint32(fr[o.a])) + uint64(o.b)
			if a+4 > uint64(len(mem)) {
				break loop
			}
			fr[o.c] = uint64(binary.LittleEndian.Uint32(mem[a:]))
		case rI64Load:
			a := uint64(uint32(fr[o.a])) + uint64(o.b)
			if a+8 > uint64(len(mem)) {
				break loop
			}
			fr[o.c] = binary.LittleEndian.Uint64(mem[a:])
		case rI32Store:
			a := uint64(uint32(fr[o.a])) + uint64(o.b)
			if a+4 > uint64(len(mem)) {
				break loop
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(fr[o.c]))
		case rI64Store:
			a := uint64(uint32(fr[o.a])) + uint64(o.b)
			if a+8 > uint64(len(mem)) {
				break loop
			}
			binary.LittleEndian.PutUint64(mem[a:], fr[o.c])
		case rI64StoreK:
			a := uint64(uint32(fr[o.a])) + uint64(o.b)
			if a+8 > uint64(len(mem)) {
				break loop
			}
			binary.LittleEndian.PutUint64(mem[a:], o.k)
		case rMemSize:
			fr[o.c] = uint64(len(mem) / PageSize)
		case rSelect:
			if uint32(fr[o.b]) != 0 {
				fr[o.c] = fr[o.a]
			} else {
				fr[o.c] = fr[o.k]
			}
		case rSelectK:
			if uint32(fr[o.b]) != 0 {
				fr[o.c] = fr[o.a]
			} else {
				fr[o.c] = o.k
			}

		case rI32Eqz:
			fr[o.c] = b2i(uint32(fr[o.a]) == 0)
		case rI64Eqz:
			fr[o.c] = b2i(fr[o.a] == 0)
		case rWrap:
			fr[o.c] = uint64(uint32(fr[o.a]))
		case rExtendS:
			fr[o.c] = uint64(int64(int32(uint32(fr[o.a]))))
		case rF64Abs:
			fr[o.c] = fr[o.a] &^ (1 << 63)
		case rF64Neg:
			fr[o.c] = fr[o.a] ^ (1 << 63)
		case rF64Sqrt:
			fr[o.c] = math.Float64bits(math.Sqrt(f64(fr[o.a])))
		case rDemote:
			fr[o.c] = uint64(math.Float32bits(float32(f64(fr[o.a]))))
		case rConvS:
			fr[o.c] = math.Float64bits(float64(int64(fr[o.a])))
		case rConvU:
			fr[o.c] = math.Float64bits(float64(fr[o.a]))
		case rPromote:
			fr[o.c] = math.Float64bits(float64(math.Float32frombits(uint32(fr[o.a]))))

		case rI32Eq:
			fr[o.c] = b2i(uint32(fr[o.a]) == uint32(fr[o.b]))
		case rI32Ne:
			fr[o.c] = b2i(uint32(fr[o.a]) != uint32(fr[o.b]))
		case rI32Add:
			fr[o.c] = uint64(uint32(fr[o.a]) + uint32(fr[o.b]))
		case rI32Sub:
			fr[o.c] = uint64(uint32(fr[o.a]) - uint32(fr[o.b]))
		case rI32And:
			fr[o.c] = uint64(uint32(fr[o.a]) & uint32(fr[o.b]))
		case rI32Or:
			fr[o.c] = uint64(uint32(fr[o.a]) | uint32(fr[o.b]))
		case rI64Eq:
			fr[o.c] = b2i(fr[o.a] == fr[o.b])
		case rI64Ne:
			fr[o.c] = b2i(fr[o.a] != fr[o.b])
		case rI64LtS:
			fr[o.c] = b2i(int64(fr[o.a]) < int64(fr[o.b]))
		case rI64LtU:
			fr[o.c] = b2i(fr[o.a] < fr[o.b])
		case rI64GtS:
			fr[o.c] = b2i(int64(fr[o.a]) > int64(fr[o.b]))
		case rI64GtU:
			fr[o.c] = b2i(fr[o.a] > fr[o.b])
		case rI64LeS:
			fr[o.c] = b2i(int64(fr[o.a]) <= int64(fr[o.b]))
		case rI64LeU:
			fr[o.c] = b2i(fr[o.a] <= fr[o.b])
		case rI64GeS:
			fr[o.c] = b2i(int64(fr[o.a]) >= int64(fr[o.b]))
		case rI64GeU:
			fr[o.c] = b2i(fr[o.a] >= fr[o.b])
		case rI64Add:
			fr[o.c] = fr[o.a] + fr[o.b]
		case rI64Sub:
			fr[o.c] = fr[o.a] - fr[o.b]
		case rI64Mul:
			fr[o.c] = fr[o.a] * fr[o.b]
		case rI64DivS:
			a, b := int64(fr[o.a]), int64(fr[o.b])
			if b == 0 || a == math.MinInt64 && b == -1 {
				break loop
			}
			fr[o.c] = uint64(a / b)
		case rI64DivU:
			if fr[o.b] == 0 {
				break loop
			}
			fr[o.c] = fr[o.a] / fr[o.b]
		case rI64RemS:
			a, b := int64(fr[o.a]), int64(fr[o.b])
			if b == 0 {
				break loop
			}
			if b == -1 {
				fr[o.c] = 0
			} else {
				fr[o.c] = uint64(a % b)
			}
		case rI64RemU:
			if fr[o.b] == 0 {
				break loop
			}
			fr[o.c] = fr[o.a] % fr[o.b]
		case rI64And:
			fr[o.c] = fr[o.a] & fr[o.b]
		case rI64Or:
			fr[o.c] = fr[o.a] | fr[o.b]
		case rI64Xor:
			fr[o.c] = fr[o.a] ^ fr[o.b]
		case rI64Shl:
			fr[o.c] = fr[o.a] << (fr[o.b] & 63)
		case rI64ShrS:
			fr[o.c] = uint64(int64(fr[o.a]) >> (fr[o.b] & 63))
		case rI64ShrU:
			fr[o.c] = fr[o.a] >> (fr[o.b] & 63)
		case rF64Eq:
			fr[o.c] = b2i(f64(fr[o.a]) == f64(fr[o.b]))
		case rF64Ne:
			fr[o.c] = b2i(f64(fr[o.a]) != f64(fr[o.b]))
		case rF64Lt:
			fr[o.c] = b2i(f64(fr[o.a]) < f64(fr[o.b]))
		case rF64Gt:
			fr[o.c] = b2i(f64(fr[o.a]) > f64(fr[o.b]))
		case rF64Le:
			fr[o.c] = b2i(f64(fr[o.a]) <= f64(fr[o.b]))
		case rF64Ge:
			fr[o.c] = b2i(f64(fr[o.a]) >= f64(fr[o.b]))
		case rF64Add:
			fr[o.c] = math.Float64bits(f64(fr[o.a]) + f64(fr[o.b]))
		case rF64Sub:
			fr[o.c] = math.Float64bits(f64(fr[o.a]) - f64(fr[o.b]))
		case rF64Mul:
			fr[o.c] = math.Float64bits(f64(fr[o.a]) * f64(fr[o.b]))
		case rF64Div:
			fr[o.c] = math.Float64bits(f64(fr[o.a]) / f64(fr[o.b]))

		case rI64EqK:
			fr[o.c] = b2i(fr[o.a] == o.k)
		case rI64NeK:
			fr[o.c] = b2i(fr[o.a] != o.k)
		case rI64LtSK:
			fr[o.c] = b2i(int64(fr[o.a]) < int64(o.k))
		case rI64LtUK:
			fr[o.c] = b2i(fr[o.a] < o.k)
		case rI64GtSK:
			fr[o.c] = b2i(int64(fr[o.a]) > int64(o.k))
		case rI64GtUK:
			fr[o.c] = b2i(fr[o.a] > o.k)
		case rI64LeSK:
			fr[o.c] = b2i(int64(fr[o.a]) <= int64(o.k))
		case rI64LeUK:
			fr[o.c] = b2i(fr[o.a] <= o.k)
		case rI64GeSK:
			fr[o.c] = b2i(int64(fr[o.a]) >= int64(o.k))
		case rI64GeUK:
			fr[o.c] = b2i(fr[o.a] >= o.k)
		case rI64AddK:
			fr[o.c] = fr[o.a] + o.k
		case rI64SubK:
			fr[o.c] = fr[o.a] - o.k
		case rI64MulK:
			fr[o.c] = fr[o.a] * o.k
		case rI64AndK:
			fr[o.c] = fr[o.a] & o.k
		case rI64OrK:
			fr[o.c] = fr[o.a] | o.k
		case rI64XorK:
			fr[o.c] = fr[o.a] ^ o.k
		case rI64ShlK:
			fr[o.c] = fr[o.a] << (o.k & 63)
		case rI64ShrSK:
			fr[o.c] = uint64(int64(fr[o.a]) >> (o.k & 63))
		case rI64ShrUK:
			fr[o.c] = fr[o.a] >> (o.k & 63)

		case rBrIf:
			if uint32(fr[o.a]) == 0 {
				break
			}
			fallthrough
		case rBr:
			n := fuel - (int64(o.x) - start)
			if n < 0 {
				break loop
			}
			fuel = n
			fr[o.c] = fr[o.b]
			pc, start = int(uint32(o.k)), int64(o.k>>32)
		case rIf, rIfLtS, rIfLtSK, rIfEq, rIfEqK, rIfEqz, rIfF64Gt:
			n := fuel - (int64(o.x) - start)
			if n < 0 {
				break loop
			}
			fuel = n
			var taken bool
			switch o.op {
			case rIf:
				taken = uint32(fr[o.a]) != 0
			case rIfLtS:
				taken = int64(fr[o.a]) < int64(fr[o.b])
			case rIfLtSK:
				taken = int64(fr[o.a]) < int64(int32(o.b))
			case rIfEq:
				taken = fr[o.a] == fr[o.b]
			case rIfEqK:
				taken = fr[o.a] == uint64(int32(o.b))
			case rIfEqz:
				taken = fr[o.a] == 0
			case rIfF64Gt:
				taken = f64(fr[o.a]) > f64(fr[o.b])
			}
			if taken {
				start = int64(o.x)
			} else {
				pc, start = int(uint32(o.k)), int64(o.k>>32)
			}

		case rCall, rCallInd:
			fi := int(o.k)
			if o.op == rCallInd {
				i := uint32(fr[o.b])
				if int(i) >= len(in.table) {
					break loop
				}
				fi = int(in.table[i])
				if fi < 0 || in.sigs[fi] != int32(o.k) {
					break loop
				}
			}
			f := &in.fns[fi]
			n := fuel - (int64(o.x) - start)
			base := s.base + int(o.a)
			nc := len(in.calls)
			if n < 0 || f.code == nil || nc == cap(in.calls) || base+f.size > len(in.st) {
				break loop
			}
			fuel = n
			in.calls = in.calls[:nc+1]
			in.calls[nc] = caller{fn: int32(s.fn), pc: int32(pc), start: o.x, dst: int32(o.c), base: s.base}
			s.fn, s.base = fi, base
			fr = in.st[base:]
			for i := f.np; i < f.nl; i++ {
				fr[i] = 0
			}
			code, pc, start = f.code, 0, 0
		case rRetIf:
			if uint32(fr[o.a]) == 0 {
				break
			}
			fallthrough
		case rRet:
			n := fuel - (int64(o.x) - start)
			nc := len(in.calls) - 1
			if n < 0 || nc < 0 {
				break loop
			}
			fuel = n
			v := fr[o.b]
			c := in.calls[nc]
			in.calls = in.calls[:nc]
			s.fn, s.base = int(c.fn), c.base
			code, pc, start = in.fns[c.fn].code, int(c.pc), int64(c.start)
			fr = in.st[c.base:]
			fr[c.dst] = v
		default:
			// unreachable and memory.grow.
			break loop
		}
	}
	s.code, s.fr, s.pc, s.start, s.fuel = code, fr, pc-1, start, fuel
}

func f64(v uint64) float64 { return math.Float64frombits(v) }

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
