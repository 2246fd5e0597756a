package wasm

import (
	"encoding/binary"
	"fmt"
)

// Decode parses an encoded module. It accepts exactly the feature subset
// Encode produces (function imports, one table, one memory, active
// element/data segments) and rejects malformed or out-of-order sections.
func Decode(data []byte) (*Module, error) {
	r := &reader{data: data}
	magic, err := r.bytes(8)
	if err != nil {
		return nil, fmt.Errorf("wasm: truncated header")
	}
	if string(magic[:4]) != "\x00asm" {
		return nil, fmt.Errorf("wasm: bad magic")
	}
	if string(magic[4:]) != "\x01\x00\x00\x00" {
		return nil, fmt.Errorf("wasm: unsupported version")
	}

	m := &Module{}
	last := -1
	var funcTypes []int // from the function section, joined with code bodies
	for !r.done() {
		id, err := r.byte()
		if err != nil {
			return nil, err
		}
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes(int(size))
		if err != nil {
			return nil, err
		}
		if id == secCustom {
			continue // custom sections may appear anywhere; skipped
		}
		if int(id) <= last {
			return nil, fmt.Errorf("wasm: section %d out of order", id)
		}
		last = int(id)
		s := &reader{data: payload}
		switch id {
		case secType:
			if err := decodeTypes(s, m); err != nil {
				return nil, err
			}
		case secImport:
			if err := decodeImports(s, m); err != nil {
				return nil, err
			}
		case secFunc:
			n, err := s.u32()
			if err != nil {
				return nil, err
			}
			for i := 0; i < int(n); i++ {
				ti, err := s.u32()
				if err != nil {
					return nil, err
				}
				funcTypes = append(funcTypes, int(ti))
			}
		case secTable:
			if err := decodeTable(s, m); err != nil {
				return nil, err
			}
		case secMemory:
			if err := decodeMemory(s, m); err != nil {
				return nil, err
			}
		case secGlobal:
			if err := decodeGlobals(s, m); err != nil {
				return nil, err
			}
		case secExport:
			if err := decodeExports(s, m); err != nil {
				return nil, err
			}
		case secStart:
			return nil, fmt.Errorf("wasm: start section not supported")
		case secElem:
			if err := decodeElems(s, m); err != nil {
				return nil, err
			}
		case secCode:
			if err := decodeCode(s, m, funcTypes); err != nil {
				return nil, err
			}
		case secData:
			if err := decodeData(s, m); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wasm: unknown section id %d", id)
		}
		if s.len() != 0 {
			return nil, fmt.Errorf("wasm: section %d has %d trailing bytes", id, s.len())
		}
	}
	if len(funcTypes) > 0 && len(m.Funcs) != len(funcTypes) {
		return nil, fmt.Errorf("wasm: function section declares %d funcs, code section has %d",
			len(funcTypes), len(m.Funcs))
	}
	return m, nil
}

func decodeValType(r *reader) (ValType, error) {
	b, err := r.byte()
	if err != nil {
		return 0, err
	}
	switch v := ValType(b); v {
	case I32, I64, F32, F64:
		return v, nil
	}
	return 0, fmt.Errorf("wasm: invalid value type 0x%02x", b)
}

func decodeTypes(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		form, err := r.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("wasm: type %d is not a function type", i)
		}
		var t FuncType
		np, err := r.u32()
		if err != nil {
			return err
		}
		for j := 0; j < int(np); j++ {
			v, err := decodeValType(r)
			if err != nil {
				return err
			}
			t.Params = append(t.Params, v)
		}
		nr, err := r.u32()
		if err != nil {
			return err
		}
		if nr > 1 {
			return fmt.Errorf("wasm: multi-value results not supported")
		}
		for j := 0; j < int(nr); j++ {
			v, err := decodeValType(r)
			if err != nil {
				return err
			}
			t.Results = append(t.Results, v)
		}
		m.Types = append(m.Types, t)
	}
	return nil
}

func decodeName(r *reader) (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func decodeImports(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		mod, err := decodeName(r)
		if err != nil {
			return err
		}
		name, err := decodeName(r)
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		if kind != ExtFunc {
			return fmt.Errorf("wasm: import %s.%s: only function imports supported", mod, name)
		}
		ti, err := r.u32()
		if err != nil {
			return err
		}
		m.Imports = append(m.Imports, Import{Module: mod, Name: name, TypeIdx: int(ti)})
	}
	return nil
}

func decodeLimits(r *reader) (min, max int, err error) {
	flag, err := r.byte()
	if err != nil {
		return 0, 0, err
	}
	lo, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	switch flag {
	case 0x00:
		return int(lo), 0, nil
	case 0x01:
		hi, err := r.u32()
		if err != nil {
			return 0, 0, err
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("wasm: limits max %d below min %d", hi, lo)
		}
		return int(lo), int(hi), nil
	}
	return 0, 0, fmt.Errorf("wasm: invalid limits flag 0x%02x", flag)
}

func decodeTable(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("wasm: exactly one table supported, got %d", n)
	}
	et, err := r.byte()
	if err != nil {
		return err
	}
	if ValType(et) != Funcref {
		return fmt.Errorf("wasm: table element type must be funcref")
	}
	min, _, err := decodeLimits(r)
	if err != nil {
		return err
	}
	m.HasTable = true
	m.TableMin = min
	return nil
}

func decodeMemory(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("wasm: exactly one memory supported, got %d", n)
	}
	min, max, err := decodeLimits(r)
	if err != nil {
		return err
	}
	m.HasMemory = true
	m.MemMin = min
	m.MemMax = max
	return nil
}

// readInstr decodes the instruction at r into an instr with its opcode
// and immediate: an index or depth, a memarg's offset, a constant (f64 as
// bits) or a block type. It rejects an unknown opcode, a malformed
// immediate, an alignment beyond the natural one and a nonzero table or
// memory index.
func readInstr(r *reader) (instr, error) {
	op, err := r.byte()
	if err != nil {
		return instr{}, err
	}
	ins := instr{op: op}
	var v uint32
	switch opTable[op].imm {
	case immNone:
		if opTable[op].name == "" {
			return ins, fmt.Errorf("unknown opcode 0x%02x", op)
		}
	case immBlock:
		b, err := r.byte()
		if err != nil {
			return ins, err
		}
		if blockResults[b] == nil {
			return ins, fmt.Errorf("invalid block type 0x%02x", b)
		}
		ins.imm = int64(b)
	case immIdx, immTable:
		v, err = r.u32()
		ins.imm = int64(v)
		if err == nil && op == OpCallIndirect {
			err = r.zero("table")
		}
	case immMem:
		if v, err = r.u32(); err != nil {
			return ins, err
		}
		natural := uint32(3)
		if op == OpI32Load || op == OpI32Store {
			natural = 2
		}
		if v > natural {
			return ins, fmt.Errorf("alignment 2^%d exceeds natural alignment", v)
		}
		v, err = r.u32()
		ins.imm = int64(v)
	case immZero:
		err = r.zero("memory")
	case immI32, immI64:
		ins.imm, err = r.sleb()
	case immF64:
		var b []byte
		b, err = r.bytes(8)
		if err == nil {
			ins.imm = int64(binary.LittleEndian.Uint64(b))
		}
	}
	return ins, err
}

// readConst reads a constant expression, one i32, i64 or f64 const and an
// end, and returns its type and value: an i32 zero-extended, an f64 as
// bits.
func readConst(r *reader) (ValType, uint64, error) {
	ins, err := readInstr(r)
	if err != nil {
		return 0, 0, err
	}
	var t ValType
	switch ins.op {
	case OpI32Const:
		t, ins.imm = I32, int64(uint32(ins.imm))
	case OpI64Const:
		t = I64
	case OpF64Const:
		t = F64
	default:
		return 0, 0, fmt.Errorf("wasm: unsupported constant expression opcode 0x%02x", ins.op)
	}
	if end, err := r.byte(); err != nil || end != OpEnd {
		return 0, 0, fmt.Errorf("wasm: constant expression not terminated")
	}
	return t, uint64(ins.imm), nil
}

// readOffset reads a segment's offset, an i32 constant expression.
func readOffset(r *reader, what string, i int) (int32, error) {
	t, v, err := readConst(r)
	if err == nil && t != I32 {
		err = fmt.Errorf("wasm: %s segment %d offset must be i32.const", what, i)
	}
	return int32(v), err
}

func decodeGlobals(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		t, err := decodeValType(r)
		if err != nil {
			return err
		}
		mut, err := r.byte()
		if err != nil {
			return err
		}
		if mut > 1 {
			return fmt.Errorf("wasm: global %d has invalid mutability", i)
		}
		start := r.pos
		if _, _, err := readConst(r); err != nil {
			return err
		}
		init := r.data[start:r.pos]
		m.Globals = append(m.Globals, Global{Type: t, Mut: mut == 1, Init: init})
	}
	return nil
}

func decodeExports(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		name, err := decodeName(r)
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.Exports = append(m.Exports, Export{Name: name, Kind: kind, Idx: int(idx)})
	}
	return nil
}

func decodeElems(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("wasm: element segment %d: only active table-0 segments supported", i)
		}
		off, err := readOffset(r, "element", i)
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		e := Elem{Offset: off}
		for j := 0; j < int(cnt); j++ {
			f, err := r.u32()
			if err != nil {
				return err
			}
			e.Funcs = append(e.Funcs, int(f))
		}
		m.Elems = append(m.Elems, e)
	}
	return nil
}

func decodeCode(r *reader, m *Module, funcTypes []int) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if int(n) != len(funcTypes) {
		return fmt.Errorf("wasm: code section has %d bodies for %d declared funcs", n, len(funcTypes))
	}
	for i := 0; i < int(n); i++ {
		size, err := r.u32()
		if err != nil {
			return err
		}
		body, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		s := &reader{data: body}
		nruns, err := s.u32()
		if err != nil {
			return err
		}
		var locals []ValType
		for j := 0; j < int(nruns); j++ {
			cnt, err := s.u32()
			if err != nil {
				return err
			}
			if len(locals)+int(cnt) > 1_000_000 {
				return fmt.Errorf("wasm: function %d declares too many locals", i)
			}
			t, err := decodeValType(s)
			if err != nil {
				return err
			}
			for k := 0; k < int(cnt); k++ {
				locals = append(locals, t)
			}
		}
		code := body[s.pos:]
		if len(code) == 0 || code[len(code)-1] != OpEnd {
			return fmt.Errorf("wasm: function %d body not terminated by end", i)
		}
		m.Funcs = append(m.Funcs, Func{TypeIdx: funcTypes[i], Locals: locals, Code: code})
	}
	return nil
}

func decodeData(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("wasm: data segment %d: only active memory-0 segments supported", i)
		}
		off, err := readOffset(r, "data", i)
		if err != nil {
			return err
		}
		size, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		m.Data = append(m.Data, Data{Offset: off, Bytes: append([]byte(nil), b...)})
	}
	return nil
}
