package wasm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// opLocalGetLocalGet is byte 0xE0, which no wasm opcode uses; the
// validator must refuse it (TestValidateRejects).
const opLocalGetLocalGet = 0xE0

// ref is the reference interpreter the register engine is checked
// against. It runs a body's decoded instructions one at a time on an
// operand stack with a stack of labels, recursing in Go for calls, and
// charges one unit of fuel per instruction as it starts. Like the engine,
// it tests the budget only where a straight-line run ends: at an if, an
// else, a br, a taken br_if, a call, a frame exit and a trap. So at every
// budget both must stop at the same instruction with the same fuel left,
// the same host calls made and the same memory.
//
// Memory, globals, table and hosts come from an Instance, whose own code
// it never runs.
type ref struct {
	in     *Instance
	bodies [][]instr
	ends   [][]int // per body, at each block, loop, if and else: its end
	elses  [][]int // per body, at each if: its else, or -1
	depth  int
}

func newRef(m *Module, hosts map[string]HostFunc) (*ref, error) {
	in, err := NewInstance(m, hosts)
	if err != nil {
		return nil, err
	}
	r := &ref{in: in}
	err = m.validate(func(_ int, code []instr) {
		ends, elses := make([]int, len(code)), make([]int, len(code))
		var open []int
		for pc, ins := range code {
			elses[pc] = -1
			switch ins.op {
			case OpBlock, OpLoop, OpIf:
				open = append(open, pc)
			case OpElse:
				elses[open[len(open)-1]] = pc
				ends[pc] = -1 // resolved at the end
				open = append(open, pc)
			case OpEnd:
				if len(open) == 0 {
					break
				}
				at := open[len(open)-1]
				open = open[:len(open)-1]
				ends[at] = pc
				if code[at].op == OpElse {
					ends[open[len(open)-1]] = pc
					open = open[:len(open)-1]
				}
			}
		}
		r.bodies = append(r.bodies, slices.Clone(code))
		r.ends, r.elses = append(r.ends, ends), append(r.elses, elses)
	})
	return r, err
}

func (r *ref) invoke(name string, args ...uint64) ([]uint64, error) {
	for _, e := range r.in.m.Exports {
		if e.Name == name && e.Kind == ExtFunc {
			r.depth = 0
			return r.call(e.Idx, slices.Clone(args))
		}
	}
	return nil, fmt.Errorf("no export %q", name)
}

// refLabel is a label of the reference interpreter: where a branch to it
// continues, the operand height it restores and how many results it keeps.
type refLabel struct {
	cont, height, arity int
}

func (r *ref) call(fi int, args []uint64) ([]uint64, error) {
	in := r.in
	if fi < len(in.hosts) {
		return in.hosts[fi].Fn(args)
	}
	if r.depth >= maxFrames {
		return nil, &Trap{Msg: "call stack exhausted"}
	}
	r.depth++
	defer func() { r.depth-- }()
	bi := fi - len(in.hosts)
	code, ends, elses := r.bodies[bi], r.ends[bi], r.elses[bi]
	f := &in.m.Funcs[bi]
	nres := len(in.m.Types[f.TypeIdx].Results)
	locals := append(args, make([]uint64, len(f.Locals))...)
	var st []uint64
	var labels []refLabel
	push := func(v uint64) { st = append(st, v) }
	pop := func() uint64 {
		v := st[len(st)-1]
		st = st[:len(st)-1]
		return v
	}
	// stop is the budget test where a run ends.
	stop := func() bool { return in.Fuel < 0 }
	trap := func(msg string) error {
		if stop() {
			return ErrFuel
		}
		return &Trap{Msg: msg}
	}
	results := func() []uint64 { return slices.Clone(st[len(st)-nres:]) }
	addr := func(base uint64, off int64, size uint64) (uint64, bool) {
		a := uint64(uint32(base)) + uint64(off)
		return a, a+size <= uint64(len(in.mem))
	}
	for pc := 0; ; pc++ {
		ins := code[pc]
		in.Fuel--
		switch op := ins.op; op {
		case OpNop:
		case OpUnreachable:
			return nil, trap("unreachable executed")
		case OpBlock, OpIf, OpLoop:
			l := refLabel{cont: ends[pc] + 1, height: len(st), arity: int(ins.imm)}
			if op == OpLoop {
				l = refLabel{cont: pc + 1, height: len(st)}
			}
			if op == OpIf {
				if stop() {
					return nil, ErrFuel
				}
				l.height--
				if uint32(pop()) == 0 {
					if elses[pc] < 0 {
						pc = ends[pc]
						continue
					}
					pc = elses[pc]
				}
			}
			labels = append(labels, l)
		case OpElse:
			if stop() {
				return nil, ErrFuel
			}
			pc = ends[pc] - 1 // the end runs next and pops the label
		case OpEnd:
			if len(labels) == 0 {
				if stop() {
					return nil, ErrFuel
				}
				return results(), nil
			}
			labels = labels[:len(labels)-1]
		case OpBr, OpBrIf, OpReturn:
			if op == OpBrIf && uint32(pop()) == 0 {
				break
			}
			if stop() {
				return nil, ErrFuel
			}
			d := int(ins.imm)
			if op == OpReturn || d == len(labels) {
				return results(), nil
			}
			l := labels[len(labels)-1-d]
			st = append(st[:l.height], st[len(st)-l.arity:]...)
			labels = labels[:len(labels)-1-d]
			if code[l.cont-1].op == OpLoop {
				labels = append(labels, l) // a loop keeps its label
			}
			pc = l.cont - 1
		case OpCall, OpCallIndirect:
			callee := int(ins.imm)
			if op == OpCallIndirect {
				i := uint32(pop())
				switch {
				case int(i) >= len(in.table):
					return nil, trap("undefined element")
				case in.table[i] < 0:
					return nil, trap("uninitialized element")
				case !in.m.Types[ins.imm].Equal(mustType(in.m, int(in.table[i]))):
					return nil, trap("indirect call type mismatch")
				}
				callee = int(in.table[i])
			}
			if stop() {
				return nil, ErrFuel
			}
			n := len(mustType(in.m, callee).Params)
			args := slices.Clone(st[len(st)-n:])
			st = st[:len(st)-n]
			res, err := r.call(callee, args)
			if err != nil {
				return nil, err
			}
			st = append(st, res...)
		case OpDrop:
			pop()
		case OpSelect:
			c, b, a := pop(), pop(), pop()
			if uint32(c) == 0 {
				a = b
			}
			push(a)
		case OpLocalGet:
			push(locals[ins.imm])
		case OpLocalSet:
			locals[ins.imm] = pop()
		case OpLocalTee:
			locals[ins.imm] = st[len(st)-1]
		case OpGlobalGet:
			push(in.globals[ins.imm])
		case OpGlobalSet:
			in.globals[ins.imm] = pop()
		case OpI32Load, OpI64Load, OpF64Load:
			size := uint64(8)
			if op == OpI32Load {
				size = 4
			}
			a, ok := addr(pop(), ins.imm, size)
			if !ok {
				return nil, trap("out of bounds memory access")
			}
			var v uint64
			for i := range size {
				v |= uint64(in.mem[a+i]) << (8 * i)
			}
			push(v)
		case OpI32Store, OpI64Store, OpF64Store:
			v := pop()
			size := uint64(8)
			if op == OpI32Store {
				size = 4
			}
			a, ok := addr(pop(), ins.imm, size)
			if !ok {
				return nil, trap("out of bounds memory access")
			}
			for i := range size {
				in.mem[a+i] = byte(v >> (8 * i))
			}
		case OpMemSize:
			push(uint64(len(in.mem) / PageSize))
		case OpMemGrow:
			push(in.growMemory(uint32(pop())))
		case OpI32Const:
			push(uint64(uint32(ins.imm)))
		case OpI64Const, OpF64Const:
			push(uint64(ins.imm))
		default:
			if info := opTable[op]; len(info.pop) == 1 {
				push(refUnary(op, pop()))
				break
			}
			b, a := pop(), pop()
			v, msg := refBinary(op, a, b)
			if msg != "" {
				return nil, trap(msg)
			}
			push(v)
		}
	}
}

func mustType(m *Module, fi int) FuncType {
	t, err := m.TypeOfFunc(fi)
	if err != nil {
		panic(err)
	}
	return t
}

func refUnary(op byte, a uint64) uint64 {
	f := math.Float64frombits(a)
	bits := math.Float64bits
	switch op {
	case OpI32Eqz:
		return b2i(uint32(a) == 0)
	case OpI64Eqz:
		return b2i(a == 0)
	case OpI32WrapI64, OpI64ExtendI32U:
		return uint64(uint32(a))
	case OpI64ExtendI32S:
		return uint64(int64(int32(a)))
	case OpF64Abs:
		return bits(math.Abs(f))
	case OpF64Neg:
		return bits(-f)
	case OpF64Sqrt:
		return bits(math.Sqrt(f))
	case OpF32DemoteF64:
		return uint64(math.Float32bits(float32(f)))
	case OpF64ConvertI64S:
		return bits(float64(int64(a)))
	case OpF64ConvertI64U:
		return bits(float64(a))
	case OpF64PromoteF32:
		return bits(float64(math.Float32frombits(uint32(a))))
	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		return a
	}
	panic(fmt.Sprintf("no unary op 0x%02x", op))
}

func refBinary(op byte, a, b uint64) (uint64, string) {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	bits := math.Float64bits
	switch op {
	case OpI32Eq:
		return b2i(uint32(a) == uint32(b)), ""
	case OpI32Ne:
		return b2i(uint32(a) != uint32(b)), ""
	case OpI32Add:
		return uint64(uint32(a + b)), ""
	case OpI32Sub:
		return uint64(uint32(a - b)), ""
	case OpI32And:
		return uint64(uint32(a & b)), ""
	case OpI32Or:
		return uint64(uint32(a | b)), ""
	case OpI64Eq:
		return b2i(a == b), ""
	case OpI64Ne:
		return b2i(a != b), ""
	case OpI64LtS:
		return b2i(int64(a) < int64(b)), ""
	case OpI64LtU:
		return b2i(a < b), ""
	case OpI64GtS:
		return b2i(int64(a) > int64(b)), ""
	case OpI64GtU:
		return b2i(a > b), ""
	case OpI64LeS:
		return b2i(int64(a) <= int64(b)), ""
	case OpI64LeU:
		return b2i(a <= b), ""
	case OpI64GeS:
		return b2i(int64(a) >= int64(b)), ""
	case OpI64GeU:
		return b2i(a >= b), ""
	case OpI64Add:
		return a + b, ""
	case OpI64Sub:
		return a - b, ""
	case OpI64Mul:
		return a * b, ""
	case OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU:
		switch {
		case b == 0:
			return 0, "integer divide by zero"
		case op == OpI64DivS && int64(a) == math.MinInt64 && int64(b) == -1:
			return 0, "integer overflow"
		case op == OpI64DivS:
			return uint64(int64(a) / int64(b)), ""
		case op == OpI64DivU:
			return a / b, ""
		case op == OpI64RemS && int64(b) == -1:
			return 0, ""
		case op == OpI64RemS:
			return uint64(int64(a) % int64(b)), ""
		}
		return a % b, ""
	case OpI64And:
		return a & b, ""
	case OpI64Or:
		return a | b, ""
	case OpI64Xor:
		return a ^ b, ""
	case OpI64Shl:
		return a << (b % 64), ""
	case OpI64ShrS:
		return uint64(int64(a) >> (b % 64)), ""
	case OpI64ShrU:
		return a >> (b % 64), ""
	case OpF64Eq:
		return b2i(x == y), ""
	case OpF64Ne:
		return b2i(x != y), ""
	case OpF64Lt:
		return b2i(x < y), ""
	case OpF64Gt:
		return b2i(x > y), ""
	case OpF64Le:
		return b2i(x <= y), ""
	case OpF64Ge:
		return b2i(x >= y), ""
	case OpF64Add:
		return bits(x + y), ""
	case OpF64Sub:
		return bits(x - y), ""
	case OpF64Mul:
		return bits(x * y), ""
	case OpF64Div:
		return bits(x / y), ""
	}
	panic(fmt.Sprintf("no binary op 0x%02x", op))
}

// outcome is everything an invocation leaves observable.
type outcome struct {
	res     []uint64
	err     string
	fuel    int64
	trace   []uint64
	mem     []byte
	globals []uint64
}

func (o outcome) equal(p outcome) bool {
	return o.err == p.err && o.fuel == p.fuel && slices.Equal(o.res, p.res) &&
		slices.Equal(o.trace, p.trace) && slices.Equal(o.mem, p.mem) && slices.Equal(o.globals, p.globals)
}

func (o outcome) String() string {
	return fmt.Sprintf("{res %v, err %q, fuel %d, trace %v, globals %v}", o.res, o.err, o.fuel, o.trace, o.globals)
}

// traceHosts returns the host functions the test modules import, each
// recording its calls in *trace: env.tick(x) records x, and env.echo(x)
// records and returns x + 1.
func traceHosts(trace *[]uint64) map[string]HostFunc {
	return map[string]HostFunc{
		"env.tick": {Type: FuncType{Params: []ValType{I64}}, Fn: func(a []uint64) ([]uint64, error) {
			*trace = append(*trace, a[0])
			return nil, nil
		}},
		"env.echo": {Type: FuncType{Params: []ValType{I64}, Results: []ValType{I64}}, Fn: func(a []uint64) ([]uint64, error) {
			*trace = append(*trace, a[0])
			return []uint64{a[0] + 1}, nil
		}},
	}
}

// runBoth invokes name(args) with fuel on fresh instances of m in the
// register engine and in the reference interpreter.
func runBoth(t testing.TB, m *Module, fuel int64, name string, args ...uint64) (got, want outcome) {
	t.Helper()
	var gotTrace, wantTrace []uint64
	in, err := NewInstance(m, traceHosts(&gotTrace))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRef(m, traceHosts(&wantTrace))
	if err != nil {
		t.Fatal(err)
	}
	in.Fuel, r.in.Fuel = fuel, fuel
	res, err := in.Invoke(name, args...)
	got = outcome{res, fmt.Sprint(err), in.Fuel, gotTrace, in.mem, in.globals}
	res, err = r.invoke(name, args...)
	want = outcome{res, fmt.Sprint(err), r.in.Fuel, wantTrace, r.in.mem, r.in.globals}
	return got, want
}

// checkEveryBudget runs name(args) in both interpreters at every fuel
// budget from 0 to its full cost and compares what each run leaves.
func checkEveryBudget(t *testing.T, m *Module, name string, args ...uint64) {
	t.Helper()
	const plenty = 1 << 40
	got, want := runBoth(t, m, plenty, name, args...)
	if !got.equal(want) {
		t.Fatalf("%s%v: register code %v, reference %v", name, args, got, want)
	}
	cost := plenty - want.fuel
	for budget := int64(0); budget <= cost; budget++ {
		got, want := runBoth(t, m, budget, name, args...)
		if !got.equal(want) {
			t.Fatalf("%s%v with %d of %d fuel: register code %v, reference %v", name, args, budget, cost, got, want)
		}
		if out := got.err == ErrFuel.Error(); out != (budget < cost) {
			t.Fatalf("%s%v with %d of %d fuel: got %v", name, args, budget, cost, got.err)
		}
	}
}

// fusedModule exports f(x, y), whose body holds the adjacent pairs
// local.get;local.get, local.get;i64.const, local.set;local.get and
// i64.const;i64.add, the ones executed most often by the benchmark suite:
//
//	do { acc = h(acc + x + 1); i = i + 1 } while i < y  // br_if into a pair
//	return acc / y + x * 5                              // traps right after a pair if y == 0
//
// with h(a) = a + 1, so fuel also crosses a call and a return.
func fusedModule() *Module {
	m := &Module{}
	hi := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	fi := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	h := []byte{OpLocalGet, 0, OpI64Const, 1, OpI64Add, OpEnd}
	var f []byte
	f = append(f, OpBlock, BlockEmpty, OpLoop, BlockEmpty)
	f = append(f, OpLocalGet, 2, OpLocalGet, 0, OpI64Add) // local.get;local.get
	f = append(f, OpI64Const, 1, OpI64Add)                // i64.const;i64.add
	f = append(f, OpCall, 0)
	f = append(f, OpLocalSet, 2, OpLocalGet, 3) // local.set;local.get
	f = append(f, OpI64Const, 1, OpI64Add, OpLocalTee, 3)
	f = append(f, OpLocalGet, 1, OpI64LtS, OpBrIf, 0, OpEnd, OpEnd)
	f = append(f, OpLocalGet, 2, OpLocalGet, 1, OpI64DivS)          // the trap
	f = append(f, OpLocalGet, 0, OpI64Const, 5, OpI64Mul, OpI64Add) // local.get;i64.const
	f = append(f, OpEnd)
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: hi, Code: h},
		Func{TypeIdx: fi, Locals: []ValType{I64, I64}, Code: f},
	)
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 1})
	return m
}

// shapesModule exports one function per shape the translator treats
// specially, each of type (i64, i64) -> i64 with two declared i64 locals,
// and imports env.tick and env.echo, so host calls show in the trace.
func shapesModule() (*Module, []string) {
	m := &Module{HasMemory: true, MemMin: 1}
	hi := m.AddType(FuncType{Params: []ValType{I64}})
	ei := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	m.Imports = append(m.Imports,
		Import{Module: "env", Name: "tick", TypeIdx: hi},
		Import{Module: "env", Name: "echo", TypeIdx: ei},
	)
	const tick, echo = 0, 1
	ti := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	I64b := byte(I64)
	bodies := []struct {
		name string
		code []byte
	}{
		// A block's value reaches its end three ways: br from a deeper
		// height (with a value left below it), br_if with a value, and
		// falling through.
		{"block-values", []byte{
			OpI64Const, 7,
			OpBlock, I64b,
			OpLocalGet, 0, OpLocalGet, 0, OpI64Const, 3, OpI64Mul, // x, 3x
			OpLocalGet, 1, OpI64Eqz, OpBrIf, 0, // y == 0: 3x
			OpDrop, OpDrop,
			OpBlock, I64b,
			OpLocalGet, 1, OpI64Const, 1, OpI64GtS, OpIf, BlockEmpty,
			OpLocalGet, 1, OpBr, 2, // y > 1: y to the outer block
			OpEnd,
			OpLocalGet, 0, OpI64Const, 1, OpI64Add, // fall through: x + 1
			OpEnd,
			OpEnd,
			OpI64Add, OpEnd,
		}},
		// br_if carrying a result, taken or not, into a block whose value
		// is then used, and a call between the operands of an add.
		{"br-if-result", []byte{
			OpLocalGet, 0,
			OpBlock, I64b,
			OpLocalGet, 1, OpCall, echo,
			OpLocalGet, 0, OpI64Const, 5, OpI64LtS, OpBrIf, 0,
			OpI64Const, 2, OpI64Mul,
			OpEnd,
			OpI64Sub, OpEnd,
		}},
		// if/else with a result, the arms ending in a constant and in a
		// computed value, and a nested one returning from inside.
		{"if-else-result", []byte{
			OpLocalGet, 0, OpLocalGet, 1, OpI64LtU,
			OpIf, I64b,
			OpI64Const, 0x2A, // 42
			OpElse,
			OpLocalGet, 1, OpI64Eqz,
			OpIf, I64b,
			OpLocalGet, 0, OpReturn,
			OpElse,
			OpLocalGet, 0, OpLocalGet, 1, OpI64RemS,
			OpEnd,
			OpEnd,
			OpLocalGet, 1, OpI64Add, OpEnd,
		}},
		// local.tee into a local that a pending read still needs, and as
		// a call argument.
		{"tee", []byte{
			OpLocalGet, 2, // 0
			OpLocalGet, 0, OpLocalGet, 1, OpI64Add, OpLocalTee, 2,
			OpI64Add, // 0 + (x + y), with local 2 now x + y
			OpLocalGet, 2, OpI64Const, 1, OpI64Shl, OpLocalTee, 3, OpCall, echo,
			OpLocalGet, 3, OpI64Mul, OpI64Add, OpEnd,
		}},
		// local.set x between a local.get x and its use, at both operand
		// positions, and set from x itself.
		{"set-between", []byte{
			OpLocalGet, 0, // x
			OpLocalGet, 1, OpLocalSet, 0, // x = y
			OpLocalGet, 0, // y
			OpI64Sub,      // x - y
			OpLocalGet, 0, // y
			OpLocalGet, 0, OpI64Const, 9, OpI64Add, OpLocalSet, 0, // x = y + 9
			OpLocalGet, 0, OpI64Mul, // y * (y + 9)
			OpI64Xor,
			OpLocalGet, 0, OpLocalSet, 0,
			OpLocalGet, 0, OpI64Add, OpEnd,
		}},
		// A loop of x & 7 passes storing to and loading from memory,
		// ticking each pass: the address is wrapped from an i64, so a y
		// past the page traps.
		{"memory-loop", []byte{
			OpBlock, BlockEmpty, OpLoop, BlockEmpty,
			OpLocalGet, 2, OpLocalGet, 0, OpI64Const, 7, OpI64And, OpI64GeU, OpBrIf, 1,
			OpLocalGet, 2, OpCall, tick,
			OpLocalGet, 2, OpI64Const, 3, OpI64Shl, OpLocalGet, 1, OpI64Add, OpI32WrapI64,
			OpLocalGet, 2, OpLocalGet, 3, OpI64Add, OpI64Store, 3, 0,
			OpLocalGet, 3,
			OpLocalGet, 2, OpI64Const, 3, OpI64Shl, OpLocalGet, 1, OpI64Add, OpI32WrapI64,
			OpI64Load, 3, 0, OpI64Add, OpLocalSet, 3,
			OpLocalGet, 2, OpI64Const, 1, OpI64Add, OpLocalSet, 2,
			OpBr, 0,
			OpEnd, OpEnd,
			OpLocalGet, 3, OpEnd,
		}},
		// select on constant and local arms, and unreachable code after a
		// br left untranslated.
		{"select-dead", []byte{
			OpBlock, I64b,
			OpI64Const, 1, OpLocalGet, 0, OpLocalGet, 0, OpLocalGet, 1, OpI64GtS, OpSelect,
			OpBr, 0,
			OpLocalGet, 0, OpI64Const, 0, OpI64DivS, OpDrop, OpUnreachable,
			OpEnd,
			OpLocalGet, 1, OpI32WrapI64, OpI32Const, 1, OpI32Add, OpI64ExtendI32U, OpI64Add,
			OpEnd,
		}},
		// Each if a comparison of the last rop makes: f64.gt, i64.eq with
		// a constant, i64.eqz and i64.lt_s, then a select whose second arm
		// is a constant.
		{"compare-if", []byte{
			OpLocalGet, 0, OpF64ConvertI64S, OpLocalGet, 1, OpF64ConvertI64S, OpF64Gt,
			OpIf, I64b, OpLocalGet, 0, OpElse, OpLocalGet, 1, OpEnd, OpLocalSet, 2,
			OpLocalGet, 0, OpI64Const, 3, OpI64Eq,
			OpIf, BlockEmpty, OpLocalGet, 2, OpI64Const, 1, OpI64Add, OpLocalSet, 2, OpEnd,
			OpLocalGet, 1, OpI64Eqz,
			OpIf, BlockEmpty, OpLocalGet, 2, OpI64Const, 2, OpI64Add, OpLocalSet, 2, OpEnd,
			OpLocalGet, 0, OpLocalGet, 1, OpI64LtS,
			OpIf, BlockEmpty, OpLocalGet, 2, OpI64Const, 4, OpI64Add, OpLocalSet, 2, OpEnd,
			OpLocalGet, 0, OpI64Const, 5, OpLocalGet, 1, OpI64Const, 3, OpI64LtS, OpSelect,
			OpLocalGet, 2, OpI64Add, OpEnd,
		}},
	}
	var names []string
	for i, b := range bodies {
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Locals: []ValType{I64, I64}, Code: b.code})
		m.Exports = append(m.Exports, Export{Name: b.name, Kind: ExtFunc, Idx: len(m.Imports) + i})
		names = append(names, b.name)
	}
	return m, names
}

// TestRegisterCodeMatchesReference runs hand-built bodies in the register
// engine and in the reference interpreter at every budget from 0 to each
// body's full cost, and compares the result, the error, the fuel left,
// the host calls made and linear memory.
func TestRegisterCodeMatchesReference(t *testing.T) {
	m, names := shapesModule()
	args := [][2]uint64{{0, 0}, {1, 0}, {3, 4}, {9, 2}, {2, 9}, {5, 1 << 40}, {math.MaxUint64, 1}}
	for _, name := range names {
		for _, a := range args {
			checkEveryBudget(t, m, name, a[0], a[1])
		}
	}
}

// TestFusedPairsChargeExactly checks that folding local reads and
// constants into the ops that use them is invisible: the register code of
// fusedModule's f has fewer ops than f has instructions, yet at every
// budget it stops before the same original instruction as the reference,
// with the same result or error and fuel left.
func TestFusedPairsChargeExactly(t *testing.T) {
	m := fusedModule()
	r, err := newRef(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops, instrs := len(r.in.fns[1].code), len(r.bodies[1]); ops >= instrs {
		t.Fatalf("f translated to %d ops from %d instructions: nothing was folded", ops, instrs)
	}
	in := instantiate(t, m)
	if res, err := in.Invoke("f", 3, 4); err != nil || res[0] != 20 {
		t.Fatalf("f(3, 4) = %v, %v; want 20", res, err)
	}
	var trap *Trap
	if _, err := in.Invoke("f", 3, 0); !errors.As(err, &trap) {
		t.Fatalf("f(3, 0) = %v, want a divide-by-zero trap", err)
	}
	checkEveryBudget(t, m, "f", 3, 4)
	checkEveryBudget(t, m, "f", 3, 0)
}

// TestBranchIntoSecondHalf branches to the second of two local.gets that
// feed one add, with the first read still pending across the block and
// its local overwritten inside it before the branch. The pending read
// must be materialized at the block, so f(x, y) = x + y, not 2y, and fuel
// must match the reference at every budget.
func TestBranchIntoSecondHalf(t *testing.T) {
	m := &Module{}
	fi := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	f := []byte{
		OpLocalGet, 0,
		OpBlock, BlockEmpty,
		OpLocalGet, 1, OpLocalSet, 0,
		OpBr, 0,
		OpLocalGet, 0, OpDrop, // unreachable
		OpEnd,
		OpLocalGet, 0, // the branch lands here
		OpI64Add,
		OpEnd,
	}
	m.Funcs = append(m.Funcs, Func{TypeIdx: fi, Locals: []ValType{I64, I64}, Code: f})
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 0})
	if res, err := instantiate(t, m).Invoke("f", 3, 4); err != nil || res[0] != 7 {
		t.Fatalf("f(3, 4) = %v, %v; want 7 (x + y)", res, err)
	}
	checkEveryBudget(t, m, "f", 3, 4)
	checkEveryBudget(t, m, "f", 0, 9)
}
