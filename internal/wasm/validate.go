package wasm

import "fmt"

// maxPages bounds a memory's limits: 2^16 pages of 64 KiB span the 4 GiB
// a 32-bit address reaches.
const maxPages = 65536

// Validate type-checks the module: section-level index hygiene plus a
// full control-frame type check of every function body, following the
// validation algorithm from the spec appendix. A module that validates
// cannot make the interpreter read out of bounds of its own structures
// (linear memory and the table are still runtime-checked). NewInstance
// runs the same checks.
func Validate(m *Module) error { return m.validate(nil) }

// validate runs Validate's checks. If body is not nil, it is handed each
// function body in order as the checker decoded it, with each block,
// loop and if holding its result arity in imm. The code slice is reused
// for the next body.
func (m *Module) validate(body func(fi int, code []instr)) error {
	for i, im := range m.Imports {
		if im.TypeIdx < 0 || im.TypeIdx >= len(m.Types) {
			return fmt.Errorf("wasm: import %d (%s.%s): type index out of range", i, im.Module, im.Name)
		}
	}
	for i, f := range m.Funcs {
		if f.TypeIdx < 0 || f.TypeIdx >= len(m.Types) {
			return fmt.Errorf("wasm: function %d: type index out of range", i)
		}
	}
	if m.HasMemory && (uint(m.MemMin) > maxPages || uint(m.MemMax) > maxPages) {
		return fmt.Errorf("wasm: memory limits %d..%d exceed %d pages", m.MemMin, m.MemMax, maxPages)
	}
	for i, g := range m.Globals {
		r := &reader{data: g.Init}
		t, _, err := readConst(r)
		switch {
		case err != nil:
			return fmt.Errorf("wasm: global %d: %w", i, err)
		case !r.done():
			return fmt.Errorf("wasm: global %d: malformed initializer expression", i)
		case t != g.Type:
			return fmt.Errorf("wasm: global %d: initializer type %s does not match global type %s", i, t, g.Type)
		}
	}
	seen := map[string]bool{}
	for i, e := range m.Exports {
		if seen[e.Name] {
			return fmt.Errorf("wasm: duplicate export %q", e.Name)
		}
		seen[e.Name] = true
		switch e.Kind {
		case ExtFunc:
			if e.Idx < 0 || e.Idx >= m.NumFuncs() {
				return fmt.Errorf("wasm: export %d: function index out of range", i)
			}
		case ExtTable:
			if !m.HasTable || e.Idx != 0 {
				return fmt.Errorf("wasm: export %d: no such table", i)
			}
		case ExtMem:
			if !m.HasMemory || e.Idx != 0 {
				return fmt.Errorf("wasm: export %d: no such memory", i)
			}
		case ExtGlobal:
			if e.Idx < 0 || e.Idx >= len(m.Globals) {
				return fmt.Errorf("wasm: export %d: global index out of range", i)
			}
		default:
			return fmt.Errorf("wasm: export %d: unknown kind 0x%02x", i, e.Kind)
		}
	}
	for i, e := range m.Elems {
		if !m.HasTable {
			return fmt.Errorf("wasm: element segment %d without a table", i)
		}
		if e.Offset < 0 || int(e.Offset)+len(e.Funcs) > m.TableMin {
			return fmt.Errorf("wasm: element segment %d does not fit the table", i)
		}
		for _, f := range e.Funcs {
			if f < 0 || f >= m.NumFuncs() {
				return fmt.Errorf("wasm: element segment %d: function index %d out of range", i, f)
			}
		}
	}
	for i, d := range m.Data {
		if !m.HasMemory {
			return fmt.Errorf("wasm: data segment %d without a memory", i)
		}
		if d.Offset < 0 || int(d.Offset)+len(d.Bytes) > m.MemMin*PageSize {
			return fmt.Errorf("wasm: data segment %d does not fit the minimum memory", i)
		}
	}
	v := &checker{m: m}
	for i := range m.Funcs {
		if err := v.function(i); err != nil {
			return fmt.Errorf("wasm: function %d: %w", len(m.Imports)+i, err)
		}
		if body != nil {
			body(i, v.code)
		}
	}
	return nil
}

// unknownType marks a polymorphic stack slot below an unreachable point.
const unknownType ValType = 0

type ctrlFrame struct {
	op          byte // OpBlock, OpLoop, OpIf, OpElse; OpEnd marks the function frame
	start, end  []ValType
	height      int
	unreachable bool
}

func (c *ctrlFrame) labelTypes() []ValType {
	if c.op == OpLoop {
		return c.start
	}
	return c.end
}

// checker type-checks one function body at a time and records its
// decoded instructions, each block, loop and if holding its result arity
// in imm.
type checker struct {
	m      *Module
	opds   []ValType
	ctrls  []ctrlFrame
	locals []ValType
	code   []instr // the body checked last
}

func (v *checker) pushOpd(t ValType) { v.opds = append(v.opds, t) }

func (v *checker) popOpd() (ValType, error) {
	c := &v.ctrls[len(v.ctrls)-1]
	if len(v.opds) == c.height {
		if c.unreachable {
			return unknownType, nil
		}
		return 0, fmt.Errorf("operand stack underflow")
	}
	t := v.opds[len(v.opds)-1]
	v.opds = v.opds[:len(v.opds)-1]
	return t, nil
}

func (v *checker) popExpect(want ValType) (ValType, error) {
	got, err := v.popOpd()
	if err != nil {
		return 0, err
	}
	if got != want && got != unknownType && want != unknownType {
		return 0, fmt.Errorf("expected %s, found %s", want, got)
	}
	return got, nil
}

func (v *checker) popAll(ts []ValType) error {
	for i := len(ts) - 1; i >= 0; i-- {
		if _, err := v.popExpect(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *checker) pushCtrl(op byte, start, end []ValType) {
	v.ctrls = append(v.ctrls, ctrlFrame{op: op, start: start, end: end, height: len(v.opds)})
	v.opds = append(v.opds, start...)
}

func (v *checker) popCtrl() (ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return ctrlFrame{}, fmt.Errorf("end outside any block")
	}
	c := v.ctrls[len(v.ctrls)-1]
	if err := v.popAll(c.end); err != nil {
		return ctrlFrame{}, err
	}
	if len(v.opds) != c.height {
		return ctrlFrame{}, fmt.Errorf("%d values left on stack at block end", len(v.opds)-c.height)
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	return c, nil
}

func (v *checker) setUnreachable() {
	c := &v.ctrls[len(v.ctrls)-1]
	v.opds = v.opds[:c.height]
	c.unreachable = true
}

func (v *checker) label(depth int64) (*ctrlFrame, error) {
	if depth >= int64(len(v.ctrls)) {
		return nil, fmt.Errorf("branch depth %d exceeds block nesting %d", depth, len(v.ctrls))
	}
	return &v.ctrls[len(v.ctrls)-1-int(depth)], nil
}

// function decodes and type-checks body fi into v.code.
func (v *checker) function(fi int) error {
	f := &v.m.Funcs[fi]
	sig := v.m.Types[f.TypeIdx]
	v.opds, v.ctrls, v.code = v.opds[:0], v.ctrls[:0], v.code[:0]
	v.locals = append(append(v.locals[:0], sig.Params...), f.Locals...)
	v.pushCtrl(OpEnd, nil, sig.Results)

	r := &reader{data: f.Code}
	for !r.done() {
		at := r.pos
		ins, err := readInstr(r)
		if err == nil {
			err = v.step(&ins)
		}
		if err != nil {
			name := opTable[f.Code[at]].name
			if name == "" {
				name = fmt.Sprintf("0x%02x", f.Code[at])
			}
			return fmt.Errorf("at offset %d (%s): %w", at, name, err)
		}
		v.code = append(v.code, ins)
		if len(v.ctrls) == 0 {
			// The function frame was just popped by the final end.
			if !r.done() {
				return fmt.Errorf("code after function end")
			}
			return nil
		}
	}
	return fmt.Errorf("function body not terminated")
}

// step type-checks ins, which is to be appended to v.code.
func (v *checker) step(ins *instr) error {
	switch ins.op {
	case OpUnreachable:
		v.setUnreachable()
	case OpBlock, OpLoop, OpIf:
		res := blockResults[ins.imm]
		if ins.op == OpIf {
			if _, err := v.popExpect(I32); err != nil {
				return err
			}
		}
		v.pushCtrl(ins.op, nil, res)
		ins.imm = int64(len(res))
	case OpElse:
		c, err := v.popCtrl()
		if err != nil {
			return err
		}
		if c.op != OpIf {
			return fmt.Errorf("else outside if")
		}
		v.pushCtrl(OpElse, c.start, c.end)
	case OpEnd:
		c, err := v.popCtrl()
		if err != nil {
			return err
		}
		if c.op == OpIf && len(c.end) > 0 {
			return fmt.Errorf("if with result type lacks an else arm")
		}
		v.opds = append(v.opds, c.end...)
	case OpBr, OpBrIf:
		c, err := v.label(ins.imm)
		if err != nil {
			return err
		}
		if ins.op == OpBrIf {
			if _, err := v.popExpect(I32); err != nil {
				return err
			}
		}
		lt := c.labelTypes()
		if err := v.popAll(lt); err != nil {
			return err
		}
		if ins.op == OpBr {
			v.setUnreachable()
		} else {
			v.opds = append(v.opds, lt...)
		}
	case OpReturn:
		if err := v.popAll(v.ctrls[0].end); err != nil {
			return err
		}
		v.setUnreachable()
	case OpCall, OpCallIndirect:
		var sig FuncType
		if ins.op == OpCall {
			var err error
			if sig, err = v.m.TypeOfFunc(int(ins.imm)); err != nil {
				return err
			}
		} else {
			if !v.m.HasTable {
				return fmt.Errorf("call_indirect without a table")
			}
			if ins.imm >= int64(len(v.m.Types)) {
				return fmt.Errorf("call_indirect type index out of range")
			}
			if _, err := v.popExpect(I32); err != nil {
				return err
			}
			sig = v.m.Types[ins.imm]
		}
		if err := v.popAll(sig.Params); err != nil {
			return err
		}
		v.opds = append(v.opds, sig.Results...)
	case OpDrop:
		_, err := v.popOpd()
		return err
	case OpSelect:
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		t1, err := v.popOpd()
		if err != nil {
			return err
		}
		t2, err := v.popOpd()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return fmt.Errorf("select arms have different types (%s, %s)", t1, t2)
		}
		if t1 == unknownType {
			t1 = t2
		}
		v.pushOpd(t1)
	case OpLocalGet, OpLocalSet, OpLocalTee:
		if ins.imm >= int64(len(v.locals)) {
			return fmt.Errorf("local index %d out of range", ins.imm)
		}
		t := v.locals[ins.imm]
		if ins.op != OpLocalGet {
			if _, err := v.popExpect(t); err != nil {
				return err
			}
		}
		if ins.op != OpLocalSet {
			v.pushOpd(t)
		}
	case OpGlobalGet, OpGlobalSet:
		if ins.imm >= int64(len(v.m.Globals)) {
			return fmt.Errorf("global index %d out of range", ins.imm)
		}
		g := v.m.Globals[ins.imm]
		if ins.op == OpGlobalGet {
			v.pushOpd(g.Type)
		} else {
			if !g.Mut {
				return fmt.Errorf("global %d is immutable", ins.imm)
			}
			if _, err := v.popExpect(g.Type); err != nil {
				return err
			}
		}
	default:
		// Every other opcode has a fixed signature.
		info := &opTable[ins.op]
		if (info.imm == immMem || info.imm == immZero) && !v.m.HasMemory {
			return fmt.Errorf("memory instruction without a memory")
		}
		if err := v.popAll(info.pop); err != nil {
			return err
		}
		v.opds = append(v.opds, info.push...)
	}
	return nil
}
