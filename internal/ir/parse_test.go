package ir

import (
	"strings"
	"testing"
)

func TestParseTypeSyntax(t *testing.T) {
	p := &worldParser{w: NewWorld()}
	cases := []string{
		"i64", "f64", "bool", "mem", "frame",
		"i64*", "i64**",
		"[i64]", "[i64]*", "[4 x f64]",
		"(mem, i64)", "(i64, (bool, f64))",
		"fn(mem, i64)", "fn(mem, i64, fn(mem, i64))",
		"fn(mem, [i64]*, fn(mem))",
	}
	for _, src := range cases {
		ty, err := p.parseType(src)
		if err != nil {
			t.Errorf("parseType(%q): %v", src, err)
			continue
		}
		if ty.String() != src {
			t.Errorf("parseType(%q) prints as %q", src, ty.String())
		}
	}
	for _, bad := range []string{"", "i65", "fn(", "[i64", "(mem", "i64)"} {
		if _, err := p.parseType(bad); err == nil {
			t.Errorf("parseType(%q) must fail", bad)
		}
	}
}

func TestParseWorldHandwritten(t *testing.T) {
	src := `
extern main(m: mem, n: i64, ret: fn(mem, i64)) = {
    sq = i64 mul(n, n)
    v = i64 add(sq, 1:i64)
    ret(m, v)
}
`
	w, err := ParseWorld(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}
	main := w.Find("main")
	if main == nil || !main.IsExtern() {
		t.Fatal("main missing or not extern")
	}
	if main.Callee() != main.Param(2) {
		t.Fatal("main must jump its ret param")
	}
	add, ok := main.Arg(1).(*PrimOp)
	if !ok || add.OpKind() != OpAdd {
		t.Fatalf("returned value should be an add, got %v", main.Arg(1))
	}
}

// TestParseParamNames checks that the parser inverts the printer's
// parameter names: `<cont>.p<i>` is unnamed, and only a trailing `_<gid>`
// is dropped from a named one.
func TestParseParamNames(t *testing.T) {
	w, err := ParseWorld("k(k.p0: i64, a_b_12: i64, x: i64, k.p0_3: i64, __4: i64) = <unset>\n")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Find("k")
	for i, want := range []string{"", "a_b", "x", "k.p0", "_"} {
		if got := k.Param(i).Name(); got != want {
			t.Errorf("param %d named %q, want %q", i, got, want)
		}
	}
}

func TestParseWorldBranchAndBlocks(t *testing.T) {
	src := `
extern abs(m: mem, x: i64, ret: fn(mem, i64)) = {
    c = bool lt(x, 0:i64)
    branch(m, c, neg, pos)
}

neg(nm: mem) = {
    v = i64 sub(0:i64, x)
    ret(nm, v)
}

pos(pm: mem) = {
    ret(pm, x)
}
`
	w, err := ParseWorld(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}
	abs := w.Find("abs")
	if abs.Callee() == nil {
		t.Fatal("abs has no body")
	}
	if c, ok := abs.Callee().(*Continuation); !ok || c.Intrinsic() != IntrinsicBranch {
		t.Fatal("abs must branch")
	}
}

func TestParseWorldMemoryOps(t *testing.T) {
	src := `
extern f(m: mem, n: i64, ret: fn(mem, i64)) = {
    sl = (mem, i64*) slot(m)
    m1 = mem extract(sl, 0:i64)
    ptr = i64* extract(sl, 1:i64)
    m2 = mem store(m1, ptr, n)
    ld = (mem, i64) load(m2, ptr)
    m3 = mem extract(ld, 0:i64)
    v = i64 extract(ld, 1:i64)
    ret(m3, v)
}
`
	w, err := ParseWorld(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrorsReported(t *testing.T) {
	bad := []string{
		"main() = {",                  // unterminated
		"main(x: i64) = { foo(x) }\n", // undefined callee... parsed as header? no: single line braces
		"extern f(x: whatever) = <unset>\n",
		"f(x: i64) = <unset>\n\nf(x: i64) = <unset>\n",
	}
	for _, src := range bad {
		if _, err := ParseWorld(src); err == nil {
			t.Errorf("ParseWorld(%q) must fail", src)
		}
	}
}

// TestRoundTrip checks that dump → parse → dump reaches a fixed point and
// preserves structure for representative worlds.
func TestRoundTrip(t *testing.T) {
	build := func() *World {
		w := NewWorld()
		i64 := w.PrimType(PrimI64)
		mem := w.MemType()
		retT := w.FnType(mem, i64)
		f := w.Continuation(w.FnType(mem, i64, retT), "f")
		f.SetExtern(true)
		head := w.Continuation(w.FnType(mem, i64, i64), "head")
		body := w.Continuation(w.FnType(mem), "body")
		done := w.Continuation(w.FnType(mem), "done")
		f.Jump(head, f.Param(0), w.LitI64(0), w.LitI64(0))
		i, acc := head.Param(1), head.Param(2)
		head.Branch(head.Param(0), w.Cmp(OpLt, i, f.Param(1)), body, done)
		body.Jump(head, body.Param(0), w.Arith(OpAdd, i, w.LitI64(1)), w.Arith(OpAdd, acc, i))
		done.Jump(f.Param(2), done.Param(0), acc)
		return w
	}
	w1 := build()
	d1 := DumpString(w1)
	w2, err := ParseWorld(d1)
	if err != nil {
		t.Fatalf("parse of dump failed: %v\n%s", err, d1)
	}
	if err := Verify(w2); err != nil {
		t.Fatalf("reparsed world invalid: %v", err)
	}
	d2 := DumpString(w2)
	w3, err := ParseWorld(d2)
	if err != nil {
		t.Fatalf("second parse failed: %v\n%s", err, d2)
	}
	d3 := DumpString(w3)
	if d2 != d3 {
		t.Errorf("dump∘parse is not a fixed point:\n--- d2:\n%s\n--- d3:\n%s", d2, d3)
	}
	// Structure: same number of continuations and externs.
	if len(w2.Continuations()) != len(w1.Continuations()) {
		t.Errorf("continuation count changed: %d -> %d",
			len(w1.Continuations()), len(w2.Continuations()))
	}
}

func TestPrintDisambiguatesDuplicateNames(t *testing.T) {
	w := NewWorld()
	i64 := w.PrimType(PrimI64)
	a := w.Continuation(w.FnType(i64), "dup")
	b := w.Continuation(w.FnType(i64), "dup")
	a.SetExtern(true)
	a.Jump(b, a.Param(0))
	b.Jump(a, b.Param(0))
	dump := DumpString(w)
	if !strings.Contains(dump, "dup#") {
		t.Fatalf("duplicate names must be disambiguated:\n%s", dump)
	}
	if _, err := ParseWorld(dump); err != nil {
		t.Fatalf("disambiguated dump must parse: %v\n%s", err, dump)
	}
}

// TestParseWorldMalformedIsError feeds textual IR that satisfies the grammar
// but is not a valid world: an i64/bool operand mix, which a node
// constructor rejects, and a slot over a non-mem operand and a call with too
// many arguments, which only the verifier sees. ParseWorld must return an
// error for each — a hand-written .thorin file is user input, and a broken
// one must not reach the optimizer to be blamed on it.
func TestParseWorldMalformedIsError(t *testing.T) {
	cases := map[string]string{
		"arith operand mismatch": `
extern main(m: mem, n: i64, ret: fn(mem, i64)) = {
    b = bool lt(n, 1:i64)
    v = i64 add(b, n)
    ret(m, v)
}
`,
		"slot of non-mem": `
extern main(m: mem, n: i64, ret: fn(mem, i64)) = {
    s = (mem, i64*) slot(n)
    m1 = mem extract(s, 0:i64)
    ret(m1, n)
}
`,
		"call arity": `
extern main(m: mem, n: i64, ret: fn(mem, i64)) = {
    ret(m, n, n)
}
`,
	}
	for name, src := range cases {
		w, err := ParseWorld(src)
		if err == nil {
			t.Errorf("%s: must fail to parse", name)
			continue
		}
		if w != nil {
			t.Errorf("%s: failed parse must not return a world", name)
		}
		if !strings.Contains(err.Error(), "invalid IR") {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}
