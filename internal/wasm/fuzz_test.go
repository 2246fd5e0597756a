package wasm

import (
	"encoding/binary"
	"testing"
)

// fuzzGen builds a valid function body from fuzz bytes. Every value is an
// i64 except the i32 conditions and addresses it makes right before their
// use. When the bytes run out every choice is 0, the simplest, so
// generation always ends.
type fuzzGen struct {
	data   []byte
	code   []byte
	labels []int // result arity of each enclosing label, outermost first
	nvals  int   // locals, params included
	budget int   // instructions left to generate
}

func (g *fuzzGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// choose returns a choice below n, 0 when depth or size run out.
func (g *fuzzGen) choose(n int, depth int) int {
	if depth > 4 || g.budget <= 0 {
		return 0
	}
	g.budget--
	return int(g.byte()) % n
}

func (g *fuzzGen) emit(b ...byte) { g.code = append(g.code, b...) }

func (g *fuzzGen) local() byte { return g.byte() % byte(g.nvals) }

// konst emits an i64.const: small, or one of the division edge cases.
func (g *fuzzGen) konst() {
	edges := []int64{0, 1, -1, 7, -1 << 63, 1<<63 - 1, 65528, 1 << 16}
	b := g.byte()
	v := int64(int8(b))
	if b&0x80 != 0 {
		v = edges[int(b)%len(edges)]
	}
	g.emit(OpI64Const)
	g.code = AppendSleb(g.code, v)
}

var fuzzBinary = []byte{
	OpI64Add, OpI64Sub, OpI64Mul, OpI64DivS, OpI64RemS, OpI64And, OpI64Or,
	OpI64Xor, OpI64Shl, OpI64ShrS, OpI64ShrU,
}

var fuzzCompare = []byte{OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GeU, OpI64LeS}

// value emits code that pushes one i64.
func (g *fuzzGen) value(depth int) {
	switch g.choose(13, depth) {
	case 0:
		g.konst()
	case 1, 2:
		g.emit(OpLocalGet, g.local())
	case 3:
		g.value(depth + 1)
		g.emit(OpLocalTee, g.local())
	case 4, 5:
		// The right operand may write a local the left one read.
		g.value(depth + 1)
		g.value(depth + 1)
		g.emit(fuzzBinary[int(g.byte())%len(fuzzBinary)])
	case 6:
		g.cond(depth + 1)
		g.emit(OpI64ExtendI32U)
	case 7:
		g.block(OpBlock, 1, depth)
	case 8:
		g.cond(depth + 1)
		g.emit(OpIf, byte(I64))
		g.labels = append(g.labels, 1)
		g.stmts(depth + 1)
		g.value(depth + 1)
		g.emit(OpElse)
		g.stmts(depth + 1)
		g.value(depth + 1)
		g.emit(OpEnd)
		g.labels = g.labels[:len(g.labels)-1]
	case 9:
		g.value(depth + 1)
		g.emit(OpCall, 1)
	case 10:
		g.address(depth + 1)
		g.emit(OpI64Load, 3, 0)
	case 11:
		g.block(OpLoop, 1, depth)
	case 12:
		g.value(depth + 1)
		g.emit(OpCall, 0, OpLocalGet, g.local()) // env.tick, then a value
	}
}

// cond emits code that pushes an i32.
func (g *fuzzGen) cond(depth int) {
	if g.choose(2, depth) == 0 {
		g.value(depth + 1)
		g.emit(OpI64Eqz)
		return
	}
	g.value(depth + 1)
	g.value(depth + 1)
	g.emit(fuzzCompare[int(g.byte())%len(fuzzCompare)])
}

// address emits an i32 address: in bounds, just past the page, or an
// i64 wrapped.
func (g *fuzzGen) address(depth int) {
	switch g.choose(3, depth) {
	case 0:
		g.emit(OpI32Const)
		g.code = AppendSleb(g.code, int64(binary.LittleEndian.Uint16([]byte{g.byte(), g.byte()})&^7))
	case 1:
		g.emit(OpI32Const)
		g.code = AppendSleb(g.code, PageSize-4)
	case 2:
		g.value(depth + 1)
		g.emit(OpI32WrapI64)
	}
}

// block emits a block or loop with arity results: statements, which may
// branch, then the result.
func (g *fuzzGen) block(op byte, arity int, depth int) {
	bt := byte(BlockEmpty)
	if arity == 1 {
		bt = byte(I64)
	}
	g.emit(op, bt)
	g.labels = append(g.labels, arity)
	if op == OpLoop {
		// A loop's label takes no value: branch back before the result.
		g.labels[len(g.labels)-1] = 0
	}
	g.stmts(depth + 1)
	if arity == 1 {
		g.value(depth + 1)
	}
	g.labels = g.labels[:len(g.labels)-1]
	g.emit(OpEnd)
}

// stmts emits code that leaves the stack as it found it, possibly
// ending in an unconditional branch or return.
func (g *fuzzGen) stmts(depth int) {
	for g.choose(3, depth) != 0 {
		switch g.choose(9, depth) {
		case 0:
			g.value(depth + 1)
			g.emit(OpLocalSet, g.local())
		case 1:
			g.value(depth + 1)
			g.emit(OpDrop)
		case 2:
			g.address(depth + 1)
			g.value(depth + 1)
			g.emit(OpI64Store, 3, 0)
		case 3:
			g.block(OpBlock, 0, depth)
		case 4:
			g.block(OpLoop, 0, depth)
		case 5:
			g.cond(depth + 1)
			g.emit(OpIf, BlockEmpty)
			g.labels = append(g.labels, 0)
			g.stmts(depth + 1)
			if g.byte()&1 == 0 {
				g.emit(OpElse)
				g.stmts(depth + 1)
			}
			g.emit(OpEnd)
			g.labels = g.labels[:len(g.labels)-1]
		case 6:
			// A conditional branch, carrying a value where the label
			// takes one, which stays on the stack when not taken.
			d := int(g.byte()) % len(g.labels)
			if g.labels[len(g.labels)-1-d] == 1 {
				g.value(depth + 1)
				g.cond(depth + 1)
				g.emit(OpBrIf, byte(d), OpDrop)
			} else {
				g.cond(depth + 1)
				g.emit(OpBrIf, byte(d))
			}
		case 7:
			// Two values assigned in parallel.
			a, b := g.local(), g.local()
			g.value(depth + 1)
			g.value(depth + 1)
			g.emit(OpLocalSet, a, OpLocalSet, b)
		case 8:
			// br or return ends the sequence.
			d := int(g.byte()) % len(g.labels)
			if g.labels[len(g.labels)-1-d] == 1 {
				g.value(depth + 1)
			}
			if d == len(g.labels)-1 && g.byte()&1 == 0 {
				g.emit(OpReturn)
			} else {
				g.emit(OpBr, byte(d))
			}
			return
		}
	}
}

// fuzzModule builds from data a module exporting f(x, y) with two more
// i64 locals, which may call g(x), with one more, and env.tick, and has
// one page of memory. It also returns f's fuel budget.
func fuzzModule(data []byte) (*Module, int64) {
	g := &fuzzGen{data: data}
	budget := int64(binary.LittleEndian.Uint16([]byte{g.byte(), g.byte()}))
	m := &Module{HasMemory: true, MemMin: 1}
	hi := m.AddType(FuncType{Params: []ValType{I64}})
	m.Imports = append(m.Imports, Import{Module: "env", Name: "tick", TypeIdx: hi})
	gi := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	fi := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	body := func(nvals, size int) []byte {
		g.code, g.labels, g.nvals, g.budget = nil, []int{1}, nvals, size
		g.stmts(0)
		g.value(0)
		return append(g.code, OpEnd)
	}
	// g may call itself: the budget, or the frame limit, ends that.
	gBody := body(2, 12)
	fBody := body(4, 60)
	m.Funcs = append(m.Funcs,
		Func{TypeIdx: gi, Locals: []ValType{I64}, Code: gBody},
		Func{TypeIdx: fi, Locals: []ValType{I64, I64}, Code: fBody},
	)
	m.Exports = append(m.Exports, Export{Name: "f", Kind: ExtFunc, Idx: 2})
	return m, budget
}

// FuzzWasmExec builds a valid module from the fuzz input and runs f(x, y)
// in the register engine and in the reference interpreter at a budget
// drawn from the input; both must leave the same result, error, fuel,
// host calls and memory.
func FuzzWasmExec(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 7, 4, 5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(3), uint64(4))
	f.Add([]byte{0x40, 0x00, 4, 4, 9, 2, 1, 0, 8, 3, 1, 2, 1, 1}, uint64(1<<63), uint64(1<<64-1))
	f.Add([]byte{0x10, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x80, 0x85, 1, 6, 6, 6}, uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, x, y uint64) {
		m, budget := fuzzModule(data)
		if err := Validate(m); err != nil {
			t.Fatalf("generated an invalid module: %v\n%s", err, m.Wat())
		}
		got, want := runBoth(t, m, budget, "f", x, y)
		if !got.equal(want) {
			t.Fatalf("f(%d, %d) with %d fuel: register code %v, reference %v\n%s", x, y, budget, got, want, m.Wat())
		}
	})
}
