package wasm

import (
	"bytes"
	"math"
	"testing"
)

// TestUleb pins the unsigned LEB128 encoding against hand-computed byte
// sequences from the spec.
func TestUleb(t *testing.T) {
	cases := []struct {
		x    uint64
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7F}},
		{128, []byte{0x80, 0x01}},
		{255, []byte{0xFF, 0x01}},
		{624485, []byte{0xE5, 0x8E, 0x26}},
		{1 << 32, []byte{0x80, 0x80, 0x80, 0x80, 0x10}},
		{math.MaxUint64, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
	}
	for _, c := range cases {
		got := AppendUleb(nil, c.x)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendUleb(%d) = % x, want % x", c.x, got, c.want)
		}
		r := &reader{data: got}
		back, err := r.uleb()
		if err != nil || back != c.x {
			t.Errorf("uleb decode of %d: got %d, err %v", c.x, back, err)
		}
	}
}

// TestSleb pins the signed LEB128 encoding.
func TestSleb(t *testing.T) {
	cases := []struct {
		x    int64
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{-1, []byte{0x7F}},
		{63, []byte{0x3F}},
		{64, []byte{0xC0, 0x00}},
		{-64, []byte{0x40}},
		{-65, []byte{0xBF, 0x7F}},
		{-123456, []byte{0xC0, 0xBB, 0x78}},
		{math.MaxInt64, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}},
		{math.MinInt64, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F}},
	}
	for _, c := range cases {
		got := AppendSleb(nil, c.x)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendSleb(%d) = % x, want % x", c.x, got, c.want)
		}
		r := &reader{data: got}
		back, err := r.sleb()
		if err != nil || back != c.x {
			t.Errorf("sleb decode of %d: got %d, err %v", c.x, back, err)
		}
	}
}

// addFunc is a minimal module: (func (export "add") (param i64 i64)
// (result i64) local.get 0 local.get 1 i64.add).
func addModule() *Module {
	m := &Module{}
	ti := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	var code []byte
	code = append(code, OpLocalGet, 0, OpLocalGet, 1, OpI64Add, OpEnd)
	m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: code})
	m.Exports = append(m.Exports, Export{Name: "add", Kind: ExtFunc, Idx: 0})
	return m
}

// TestEncodeFraming pins the exact bytes of a hand-assembled module:
// magic, version, and each section header must match the spec layout.
func TestEncodeFraming(t *testing.T) {
	got := addModule().Encode()
	want := []byte{
		0x00, 0x61, 0x73, 0x6D, // \0asm
		0x01, 0x00, 0x00, 0x00, // version 1
		// type section: id 1, size 7, one type (i64,i64)->(i64)
		0x01, 0x07, 0x01, 0x60, 0x02, 0x7E, 0x7E, 0x01, 0x7E,
		// function section: id 3, size 2, one func of type 0
		0x03, 0x02, 0x01, 0x00,
		// export section: id 7, size 7: "add" func 0
		0x07, 0x07, 0x01, 0x03, 'a', 'd', 'd', 0x00, 0x00,
		// code section: id 10, size 9: one 7-byte body (empty locals
		// vector + 6 code bytes)
		0x0A, 0x09, 0x01, 0x07, 0x00,
		0x20, 0x00, // local.get 0
		0x20, 0x01, // local.get 1
		0x7C, // i64.add
		0x0B, // end
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded module:\n got % x\nwant % x", got, want)
	}
}

// TestRoundTrip checks Encode → Decode → Encode is a fixed point over a
// module exercising every section kind the encoder supports.
func TestRoundTrip(t *testing.T) {
	m := &Module{}
	v := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
	imp := m.AddType(FuncType{Params: []ValType{I64}})
	m.Imports = append(m.Imports, Import{Module: "env", Name: "print_i64", TypeIdx: imp})
	body := []byte{OpLocalGet, 0, OpEnd}
	m.Funcs = append(m.Funcs, Func{TypeIdx: v, Locals: []ValType{I64, I64, F64}, Code: body})
	m.HasTable = true
	m.TableMin = 2
	m.HasMemory = true
	m.MemMin = 1
	m.MemMax = 16
	m.Globals = append(m.Globals, Global{
		Type: I64, Mut: true,
		Init: append(AppendSleb([]byte{OpI64Const}, 4096), OpEnd),
	})
	m.Exports = append(m.Exports,
		Export{Name: "id", Kind: ExtFunc, Idx: 1},
		Export{Name: "memory", Kind: ExtMem, Idx: 0})
	m.Elems = append(m.Elems, Elem{Offset: 0, Funcs: []int{1, 1}})
	m.Data = append(m.Data, Data{Offset: 8, Bytes: []byte{1, 2, 3}})

	enc := m.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := Validate(dec); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	re := dec.Encode()
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs:\n1st % x\n2nd % x", enc, re)
	}
}

// TestValidateRejects feeds the validator ill-formed modules and checks
// that Validate and NewInstance each refuse every one.
func TestValidateRejects(t *testing.T) {
	mk := func(params, results []ValType, code ...byte) *Module {
		m := &Module{}
		ti := m.AddType(FuncType{Params: params, Results: results})
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: append(code, OpEnd)})
		return m
	}
	withMem := func(m *Module) *Module {
		m.HasMemory, m.MemMin = true, 1
		return m
	}
	withTable := func(m *Module) *Module {
		m.HasTable, m.TableMin = true, 1
		return m
	}
	badGlobal := mk(nil, nil)
	badGlobal.Globals = []Global{{Type: I32, Init: []byte{OpI64Const, 0, OpEnd}}}
	badData := withMem(mk(nil, nil))
	badData.Data = []Data{{Offset: PageSize - 1, Bytes: []byte{1, 2}}}
	badElem := withTable(mk(nil, nil))
	badElem.Elems = []Elem{{Offset: 1, Funcs: []int{0}}}
	cases := []struct {
		name string
		m    *Module
	}{
		{"stack underflow", mk(nil, nil, OpI64Add)},
		{"type mismatch", mk([]ValType{F64, F64}, nil, OpLocalGet, 0, OpLocalGet, 1, OpI64Add, OpDrop)},
		{"leftover value", mk([]ValType{I64}, nil, OpLocalGet, 0)},
		{"missing result", mk(nil, []ValType{I64}, OpNop)},
		{"bad local index", mk(nil, nil, OpLocalGet, 9)},
		{"branch too deep", mk(nil, nil, OpBr, 5)},
		{"i32 cond for if", mk([]ValType{I64}, nil, OpLocalGet, 0, OpIf, BlockEmpty, OpEnd)},
		{"unbalanced block", mk(nil, nil, OpBlock, BlockEmpty)},
		{"load without memory", mk(nil, nil, OpI32Const, 0, OpI64Load, 3, 0, OpDrop)},
		{"else outside if", mk(nil, nil, OpBlock, BlockEmpty, OpElse, OpEnd)},
		{"bad block type", mk(nil, nil, OpBlock, 0x7B, OpEnd)},
		{"unknown opcode", mk(nil, nil, 0xFE)},
		{"fused opcode", mk([]ValType{I64}, nil, opLocalGetLocalGet, 0, OpLocalGet, 0, OpDrop, OpDrop)},
		{"truncated immediate", mk(nil, nil, OpF64Const, 0, 0)},
		{"overaligned load", withMem(mk(nil, nil, OpI32Const, 0, OpI32Load, 3, 0, OpDrop))},
		{"memory index", withMem(mk(nil, nil, OpMemSize, 1, OpDrop))},
		{"table index", withTable(mk(nil, nil, OpI32Const, 0, OpCallIndirect, 0, 1))},
		{"global type", badGlobal},
		{"data out of bounds", badData},
		{"elem out of bounds", badElem},
	}
	for _, c := range cases {
		if err := Validate(c.m); err == nil {
			t.Errorf("%s: validated but should not", c.name)
		}
		if _, err := NewInstance(c.m, nil); err == nil {
			t.Errorf("%s: instantiated but should not", c.name)
		}
	}
}

// TestValidateMemoryLimits checks the spec's bound of 65,536 pages on a
// memory's limits. It never instantiates a module: at 2^20 pages that
// would allocate 64 GiB.
func TestValidateMemoryLimits(t *testing.T) {
	cases := []struct {
		min, max int
		ok       bool
	}{
		{1, 0, true},
		{maxPages, maxPages, true},
		{maxPages + 1, 0, false},
		{1, maxPages + 1, false},
		{1 << 20, 0, false},
	}
	for _, c := range cases {
		m := &Module{HasMemory: true, MemMin: c.min, MemMax: c.max}
		if err := Validate(m); (err == nil) != c.ok {
			t.Errorf("memory %d..%d: Validate = %v, want ok %v", c.min, c.max, err, c.ok)
		}
	}
}

// TestInterpBasics runs small hand-assembled functions through the
// interpreter: arithmetic, control flow, calls, memory, and traps.
func TestInterpBasics(t *testing.T) {
	run := func(m *Module, name string, args ...uint64) ([]uint64, error) {
		if err := Validate(m); err != nil {
			t.Fatalf("validate: %v", err)
		}
		in, err := NewInstance(m, nil)
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		return in.Invoke(name, args...)
	}

	t.Run("add", func(t *testing.T) {
		res, err := run(addModule(), "add", 40, 2)
		if err != nil || len(res) != 1 || res[0] != 42 {
			t.Fatalf("add(40,2) = %v, %v", res, err)
		}
	})

	t.Run("loop-sum", func(t *testing.T) {
		// sum 1..n with a block/loop and br_if.
		m := &Module{}
		ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
		var c []byte
		// local 1 = acc, local 0 = n (counts down)
		c = append(c, OpBlock, BlockEmpty)
		c = append(c, OpLoop, BlockEmpty)
		c = append(c, OpLocalGet, 0, OpI64Eqz, OpBrIf, 1) // exit when n == 0
		c = append(c, OpLocalGet, 1, OpLocalGet, 0, OpI64Add, OpLocalSet, 1)
		c = append(c, OpLocalGet, 0, OpI64Const, 1, OpI64Sub, OpLocalSet, 0)
		c = append(c, OpBr, 0)
		c = append(c, OpEnd, OpEnd)
		c = append(c, OpLocalGet, 1, OpEnd)
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Locals: []ValType{I64}, Code: c})
		m.Exports = append(m.Exports, Export{Name: "sum", Kind: ExtFunc, Idx: 0})
		res, err := run(m, "sum", 100)
		if err != nil || res[0] != 5050 {
			t.Fatalf("sum(100) = %v, %v", res, err)
		}
	})

	t.Run("if-else", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
		var c []byte
		c = append(c, OpLocalGet, 0, OpI64Const, 0, OpI64LtS)
		c = append(c, OpIf, byte(I64))
		c = append(c, OpI64Const, 0x7F) // -1 as sleb
		c = append(c, OpElse)
		c = append(c, OpI64Const, 1)
		c = append(c, OpEnd, OpEnd)
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "sign", Kind: ExtFunc, Idx: 0})
		if res, err := run(m, "sign", uint64(1<<63)); err != nil || int64(res[0]) != -1 {
			t.Fatalf("sign(min) = %v, %v", res, err)
		}
		if res, err := run(m, "sign", 7); err != nil || res[0] != 1 {
			t.Fatalf("sign(7) = %v, %v", res, err)
		}
	})

	t.Run("memory", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{Results: []ValType{I64}})
		var c []byte
		c = append(c, OpI32Const, 16)
		c = append(c, OpI64Const, 0xE5, 0x8E, 0x26) // 624485
		c = append(c, OpI64Store, 3, 0)
		c = append(c, OpI32Const, 16, OpI64Load, 3, 0)
		c = append(c, OpEnd)
		m.HasMemory = true
		m.MemMin = 1
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "rt", Kind: ExtFunc, Idx: 0})
		if res, err := run(m, "rt"); err != nil || res[0] != 624485 {
			t.Fatalf("store/load roundtrip = %v, %v", res, err)
		}
	})

	t.Run("oob-trap", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{Results: []ValType{I64}})
		c := []byte{OpI32Const, 0xFC, 0xFF, 0x03, OpI64Load, 3, 0, OpEnd} // 65532
		m.HasMemory = true
		m.MemMin = 1
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "oob", Kind: ExtFunc, Idx: 0})
		_, err := run(m, "oob")
		var trap *Trap
		if err == nil || !asTrap(err, &trap) {
			t.Fatalf("expected oob trap, got %v", err)
		}
	})

	t.Run("div-by-zero-trap", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
		c := []byte{OpLocalGet, 0, OpLocalGet, 1, OpI64DivS, OpEnd}
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "div", Kind: ExtFunc, Idx: 0})
		if _, err := run(m, "div", 1, 0); err == nil {
			t.Fatal("expected divide-by-zero trap")
		}
	})

	t.Run("host-call", func(t *testing.T) {
		m := &Module{}
		hi := m.AddType(FuncType{Params: []ValType{I64}})
		ti := m.AddType(FuncType{Params: []ValType{I64}})
		m.Imports = append(m.Imports, Import{Module: "env", Name: "print_i64", TypeIdx: hi})
		c := []byte{OpLocalGet, 0, OpCall, 0, OpEnd}
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "p", Kind: ExtFunc, Idx: 1})
		if err := Validate(m); err != nil {
			t.Fatalf("validate: %v", err)
		}
		var got []int64
		in, err := NewInstance(m, map[string]HostFunc{
			"env.print_i64": {
				Type: FuncType{Params: []ValType{I64}},
				Fn: func(args []uint64) ([]uint64, error) {
					got = append(got, int64(args[0]))
					return nil, nil
				},
			},
		})
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		if _, err := in.Invoke("p", uint64(123)); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		if len(got) != 1 || got[0] != 123 {
			t.Fatalf("host saw %v", got)
		}
	})

	t.Run("call-indirect", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{Params: []ValType{I64}, Results: []ValType{I64}})
		entry := m.AddType(FuncType{Params: []ValType{I32, I64}, Results: []ValType{I64}})
		// func 0: double; func 1: negate; func 2: dispatch via table
		m.Funcs = append(m.Funcs,
			Func{TypeIdx: ti, Code: []byte{OpLocalGet, 0, OpLocalGet, 0, OpI64Add, OpEnd}},
			Func{TypeIdx: ti, Code: []byte{OpI64Const, 0, OpLocalGet, 0, OpI64Sub, OpEnd}},
			Func{TypeIdx: entry, Code: []byte{
				OpLocalGet, 1, OpLocalGet, 0, OpCallIndirect, 0, 0, OpEnd}},
		)
		m.HasTable = true
		m.TableMin = 2
		m.Elems = append(m.Elems, Elem{Offset: 0, Funcs: []int{0, 1}})
		m.Exports = append(m.Exports, Export{Name: "dispatch", Kind: ExtFunc, Idx: 2})
		if res, err := run(m, "dispatch", 0, 21); err != nil || res[0] != 42 {
			t.Fatalf("dispatch(0,21) = %v, %v", res, err)
		}
		if res, err := run(m, "dispatch", 1, 21); err != nil || int64(res[0]) != -21 {
			t.Fatalf("dispatch(1,21) = %v, %v", res, err)
		}
	})

	t.Run("fuel", func(t *testing.T) {
		m := &Module{}
		ti := m.AddType(FuncType{})
		c := []byte{OpLoop, BlockEmpty, OpBr, 0, OpEnd, OpEnd}
		m.Funcs = append(m.Funcs, Func{TypeIdx: ti, Code: c})
		m.Exports = append(m.Exports, Export{Name: "spin", Kind: ExtFunc, Idx: 0})
		if err := Validate(m); err != nil {
			t.Fatalf("validate: %v", err)
		}
		in, err := NewInstance(m, nil)
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		in.Fuel = 1000
		if _, err := in.Invoke("spin"); err != ErrFuel {
			t.Fatalf("expected ErrFuel, got %v", err)
		}
	})
}

func asTrap(err error, out **Trap) bool {
	for err != nil {
		if t, ok := err.(*Trap); ok {
			*out = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestWat smoke-checks the text rendering.
func TestWat(t *testing.T) {
	w := addModule().Wat()
	for _, want := range []string{"(module", "i64.add", "local.get 0", `(export "add"`} {
		if !bytes.Contains([]byte(w), []byte(want)) {
			t.Errorf("wat output missing %q:\n%s", want, w)
		}
	}
}
