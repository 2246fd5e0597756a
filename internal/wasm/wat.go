package wasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Wat renders the module in WebAssembly text format. The output is for
// humans (thorinc -emit=wat) and golden tests, not for round-tripping
// through a WAT parser.
func (m *Module) Wat() string {
	var b strings.Builder
	b.WriteString("(module\n")
	for i, t := range m.Types {
		fmt.Fprintf(&b, "  (type (;%d;) (func%s%s))\n", i,
			watTypes(" (param", t.Params), watTypes(" (result", t.Results))
	}
	for i, im := range m.Imports {
		fmt.Fprintf(&b, "  (import %q %q (func (;%d;) (type %d)))\n",
			im.Module, im.Name, i, im.TypeIdx)
	}
	if m.HasTable {
		fmt.Fprintf(&b, "  (table %d funcref)\n", m.TableMin)
	}
	if m.HasMemory {
		if m.MemMax > 0 {
			fmt.Fprintf(&b, "  (memory %d %d)\n", m.MemMin, m.MemMax)
		} else {
			fmt.Fprintf(&b, "  (memory %d)\n", m.MemMin)
		}
	}
	for i, g := range m.Globals {
		mut := g.Type.String()
		if g.Mut {
			mut = "(mut " + mut + ")"
		}
		fmt.Fprintf(&b, "  (global (;%d;) %s (%s))\n", i, mut, watConstExpr(g.Init))
	}
	for i := range m.Funcs {
		m.watFunc(&b, i)
	}
	for _, e := range m.Exports {
		kind := [...]string{"func", "table", "memory", "global"}[e.Kind]
		fmt.Fprintf(&b, "  (export %q (%s %d))\n", e.Name, kind, e.Idx)
	}
	for _, e := range m.Elems {
		fmt.Fprintf(&b, "  (elem (i32.const %d) func", e.Offset)
		for _, f := range e.Funcs {
			fmt.Fprintf(&b, " %d", f)
		}
		b.WriteString(")\n")
	}
	for _, d := range m.Data {
		fmt.Fprintf(&b, "  (data (i32.const %d) %q)\n", d.Offset, string(d.Bytes))
	}
	b.WriteString(")\n")
	return b.String()
}

func watTypes(prefix string, ts []ValType) string {
	if len(ts) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(prefix)
	for _, t := range ts {
		b.WriteString(" ")
		b.WriteString(t.String())
	}
	b.WriteString(")")
	return b.String()
}

func watConstExpr(init []byte) string {
	t, v, err := readConst(&reader{data: init})
	if err != nil {
		return "??"
	}
	return t.String() + ".const " + watValue(t, int64(v))
}

// watValue renders a constant of type t as readInstr decoded it.
func watValue(t ValType, v int64) string {
	switch t {
	case I32:
		return strconv.Itoa(int(int32(v)))
	case I64:
		return strconv.FormatInt(v, 10)
	}
	return watF64(uint64(v))
}

func watF64(bits uint64) string {
	f := math.Float64frombits(bits)
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (m *Module) watFunc(b *strings.Builder, i int) {
	f := &m.Funcs[i]
	fmt.Fprintf(b, "  (func (;%d;) (type %d)", len(m.Imports)+i, f.TypeIdx)
	t := m.Types[f.TypeIdx]
	b.WriteString(watTypes(" (param", t.Params))
	b.WriteString(watTypes(" (result", t.Results))
	b.WriteString(watTypes("\n    (local", f.Locals))
	b.WriteString("\n")
	depth := 2
	r := &reader{data: f.Code}
	for !r.done() {
		ins, err := readInstr(r)
		if err != nil {
			break
		}
		info := &opTable[ins.op]
		if ins.op == OpEnd || ins.op == OpElse {
			depth--
		}
		if ins.op == OpEnd && r.done() {
			break // the function's closing end is implied by the s-expr
		}
		fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), info.name)
		switch info.imm {
		case immBlock:
			if ins.imm != BlockEmpty {
				fmt.Fprintf(b, " (result %s)", ValType(ins.imm))
			}
			depth++
		case immIdx:
			fmt.Fprintf(b, " %d", ins.imm)
		case immTable:
			fmt.Fprintf(b, " (type %d)", ins.imm)
		case immMem:
			if ins.imm != 0 {
				fmt.Fprintf(b, " offset=%d", ins.imm)
			}
		case immI32, immI64, immF64:
			b.WriteString(" " + watValue(info.push[0], ins.imm))
		}
		if ins.op == OpElse {
			depth++
		}
		b.WriteString("\n")
	}
	b.WriteString("  )\n")
}
