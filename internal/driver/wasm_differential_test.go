package driver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/transform"
	"thorin/internal/wasm"
)

// examplePaths returns every example program, including the nested
// per-example directories.
func examplePaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.imp"))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.imp"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, nested...)
	if len(paths) == 0 {
		t.Fatal("example corpus is empty")
	}
	return paths
}

// diffTargets compiles src for the vm and wasm targets with identical settings
// and checks the two executions agree on result, printed output and trap
// behavior. It returns false when the program does not compile for the vm
// (those programs are out of differential scope, e.g. deliberately broken
// inputs).
func diffTargets(t *testing.T, name, src, spec string, jobs int, args ...int64) bool {
	t.Helper()
	vmCfg := Config{Jobs: jobs}
	vmRes, err := CompileSpec(src, spec, analysis.ScheduleSmart, vmCfg)
	if err != nil {
		return false
	}
	wCfg := Config{Jobs: jobs, Target: backend.Wasm}
	wRes, err := CompileSpec(src, spec, analysis.ScheduleSmart, wCfg)
	if err != nil {
		t.Errorf("%s: compiles for vm but not wasm: %v", name, err)
		return true
	}
	var vout, wout bytes.Buffer
	vret, _, verr := Exec(vmRes.Target, vmRes.Program, vmRes.Wasm, &vout, 0, args...)
	wret, _, werr := Exec(wRes.Target, wRes.Program, wRes.Wasm, &wout, 0, args...)
	if (verr == nil) != (werr == nil) {
		t.Errorf("%s: trap disagreement: vm=%v wasm=%v", name, verr, werr)
		return true
	}
	if verr == nil && vret != wret {
		t.Errorf("%s: result disagreement: vm=%d wasm=%d", name, vret, wret)
	}
	if vout.String() != wout.String() {
		t.Errorf("%s: output disagreement:\nvm:\n%s\nwasm:\n%s", name, vout.String(), wout.String())
	}
	return true
}

// TestWasmDifferentialExamples is the wasm backend's acceptance gate over
// the example corpus: every example must produce the same result, output
// and trap behavior on both backends, unoptimized and fully optimized, and
// at both ends of the jobs range (codegen input must not depend on
// parallelism). The crasher corpus gets the same treatment with varied
// arguments in TestCrashers (fuzz_compile_test.go's diffArms).
func TestWasmDifferentialExamples(t *testing.T) {
	specs := map[string]string{
		"O0": transform.O0,
		"O2": transform.O2,
	}
	for _, p := range examplePaths(t) {
		srcBytes, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		src := string(srcBytes)
		compiled := false
		for sname, spec := range specs {
			for _, jobs := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/jobs=%d", filepath.Base(p), sname, jobs)
				if diffTargets(t, name, src, spec, jobs) {
					compiled = true
				}
			}
		}
		if !compiled {
			t.Logf("%s: does not compile for the vm; skipped", p)
		}
	}
}

// wasmRegressions are programs that once broke the wasm emitter, or pin
// one of its emission rules; each is kept as a differential regression.
// The first three pinned the local-typing bug where an f64 load's local
// was declared i64 (an effect primop is typed (mem, T) but its local holds
// only T). The rest pin bounds checks at lea and expression-tree emission:
// trapping ops keep their schedule position, a lea is checked where it is
// formed but traps only where it is dereferenced, and a sunk value pushed
// more than once is rematerialized.
var wasmRegressions = []struct {
	name string
	src  string
	args []int64
}{
	{"f64-load-local", `
fn main(n: i64) -> i64 {
	let mut chk = 0.0;
	for i in 0 .. n { chk = chk + 0.5; }
	(chk * 2.0) as i64
}`, []int64{0, 7}},

	{"f64-capture", `
fn apply(n: i64, f: fn(i64)) { for i in 0 .. n { f(i); } }
fn main(n: i64) -> i64 {
	let a = [0.0; 5];
	let dt = 0.5;
	apply(n, |i: i64| { a[i % 5] = a[i % 5] + dt; });
	(a[0] * 10.0) as i64
}`, []int64{0, 11}},

	{"f64-pair-closure", `
fn for_pairs(n: i64, f: fn(i64, i64)) {
	for i in 0 .. n { for j in i + 1 .. n { f(i, j); } }
}
fn main(n: i64) -> i64 {
	let v = [0.0; 5];
	for_pairs(n, |i: i64, j: i64| { v[i % 5] = v[j % 5] + 1.5; });
	(v[0] + v[1]) as i64
}`, []int64{0, 4}},

	// The division's divisor has a single use; the division itself traps,
	// so it is never sunk and the first print happens before the trap.
	{"print-before-div-trap", `
fn main(n: i64) -> i64 {
	print(n);
	print(100 / (n - 3));
	n
}`, []int64{3, 5}},

	// At n == 3 the division traps before the out-of-range load on the VM;
	// sinking it into the add would turn the trap into a bounds violation
	// (TestWasmTrapsAreTyped compares the kinds).
	{"div-trap-before-oob-load", `
fn main(n: i64) -> i64 {
	let a = [1; 3];
	let q = 100 / (n - 3);
	a[n] + q
}`, []int64{1, 3}},

	// a[n] is guarded inside the loop, but its lea is loop-invariant and the
	// smart schedule hoists it above the guard and out of the loop. For
	// n >= 4 it forms an out-of-range address that is never dereferenced.
	{"hoisted-lea-unused", `
fn main(n: i64) -> i64 {
	let a = [7; 4];
	let mut s = 0;
	for i in 0 .. 3 {
		if n < 4 { s = s + a[n]; } else { s = s + i; }
	}
	s
}`, []int64{2, 4, 100}},

	// Loads (n < 10) and stores (n >= 10) at -1, len, len+1, 2^32+1 and
	// MinInt64 all trap; 8*MinInt64 wraps to 0, so an unchecked address
	// would hit element 0. k == 5 indexes in range.
	{"lea-bounds", `
fn idx(k: i64) -> i64 {
	if k == 0 { -1 } else if k == 1 { 5 } else if k == 2 { 6 }
	else if k == 3 { 4294967297 } else if k == 4 { -9223372036854775807 - 1 } else { 2 }
}
fn main(n: i64) -> i64 {
	let a = [1; 5];
	if n < 10 { a[idx(n)] } else { a[idx(n - 10)] = 3; a[2] }
}`, []int64{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15}},

	// p.0 has one use, as the callee of an indirect call, so it is sunk;
	// the closure call pushes its callee twice (hidden first argument and
	// table index), so the extract is emitted twice.
	{"sunk-callee-pushed-twice", `
fn call0(p: (fn(i64) -> i64, i64)) -> i64 {
	let f = p.0;
	f(p.1) + 1
}
fn main(n: i64) -> i64 {
	let k = n * 3;
	call0((|x: i64| x + k, n + 1)) + call0((|x: i64| x * k, n - 1))
}`, []int64{0, 5}},
}

// TestWasmRegressions replays the minimized wasm-emitter reproducers
// differentially at both opt levels.
func TestWasmRegressions(t *testing.T) {
	for _, tc := range wasmRegressions {
		for sname, spec := range map[string]string{
			"O0": transform.O0,
			"O2": transform.O2,
		} {
			for _, arg := range tc.args {
				name := fmt.Sprintf("%s/%s/n=%d", tc.name, sname, arg)
				if !diffTargets(t, name, tc.src, spec, 1, arg) {
					t.Errorf("%s: does not compile for the vm", name)
				}
			}
		}
	}
}

// vmTrapCode maps a VM runtime error onto the wasm trap code the same
// failure must raise (0 for no error or an unknown one).
func vmTrapCode(err error) int64 {
	if err == nil {
		return 0
	}
	for _, k := range []struct {
		text string
		code int64
	}{
		{"out of bounds", wasmbackend.TrapBounds},
		{"division by zero", wasmbackend.TrapDivZero},
		{"remainder by zero", wasmbackend.TrapRemZero},
		{"negative array size", wasmbackend.TrapNegSize},
	} {
		if strings.Contains(err.Error(), k.text) {
			return k.code
		}
	}
	return 0
}

// TestWasmTrapsAreTyped: every trap of the examples, the crasher corpus
// and the wasm regressions surfaces from Exec as a
// *wasmbackend.TrapError of the kind the VM reports, never as the
// interpreter's raw *wasm.Trap. An index out of bounds is a linear-memory
// fault at the poison address $lea forms, mapped to TrapBounds.
func TestWasmTrapsAreTyped(t *testing.T) {
	type prog struct {
		name, src string
		args      []int64
	}
	var progs []prog
	crashers, err := filepath.Glob(filepath.Join("testdata", "crashers", "*.imp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(examplePaths(t), crashers...) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(p), string(src), []int64{0, 1, 7, -3}})
	}
	for _, tc := range wasmRegressions {
		progs = append(progs, prog{tc.name, tc.src, tc.args})
	}
	seen := map[int64]int{}
	for _, p := range progs {
		for sname, spec := range map[string]string{"O0": transform.O0, "O2": transform.O2} {
			vmRes, err := CompileSpec(p.src, spec, analysis.ScheduleSmart, Config{})
			if err != nil {
				continue // not a standalone program (e.g. a module with imports)
			}
			wRes, err := CompileSpec(p.src, spec, analysis.ScheduleSmart, Config{Target: backend.Wasm})
			if err != nil {
				t.Errorf("%s/%s: compiles for vm but not wasm: %v", p.name, sname, err)
				continue
			}
			for _, arg := range p.args {
				name := fmt.Sprintf("%s/%s/n=%d", p.name, sname, arg)
				_, _, verr := Exec(vmRes.Target, vmRes.Program, vmRes.Wasm, io.Discard, 0, arg)
				_, _, werr := Exec(wRes.Target, wRes.Program, wRes.Wasm, io.Discard, 0, arg)
				if werr == nil {
					continue // trap agreement is diffTargets' job
				}
				var te *wasmbackend.TrapError
				if !errors.As(werr, &te) {
					t.Errorf("%s: untyped wasm failure %T: %v", name, werr, werr)
					continue
				}
				if want := vmTrapCode(verr); te.Code != want {
					t.Errorf("%s: wasm trap %q (code %d), vm %v (code %d)", name, te, te.Code, verr, want)
				}
				seen[te.Code]++
			}
		}
	}
	for _, code := range []int64{wasmbackend.TrapBounds, wasmbackend.TrapDivZero} {
		if seen[code] == 0 {
			t.Errorf("no program raised %q; the corpus lost its trapping cases",
				&wasmbackend.TrapError{Code: code})
		}
	}
}

// TestWasmModulesValidate re-validates every module the backend emits for
// the example corpus with the in-repo validator. CompileModule already
// validates internally, so this pins the contract from the outside: an
// artifact's wasm payload is always a well-formed, type-correct module.
func TestWasmModulesValidate(t *testing.T) {
	for _, p := range examplePaths(t) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{
			transform.O0,
			transform.O2,
		} {
			res, err := CompileSpec(string(src), spec, analysis.ScheduleSmart, Config{Target: backend.Wasm})
			if err != nil {
				continue // vm-side compile failures are covered above
			}
			m, err := wasm.Decode(res.Wasm)
			if err != nil {
				t.Errorf("%s: emitted module does not decode: %v", p, err)
				continue
			}
			if err := wasm.Validate(m); err != nil {
				t.Errorf("%s: emitted module does not validate: %v", p, err)
			}
		}
	}
}

// TestWasmRejectsInvalidModules sends modules that decode but do not
// validate through Exec. Each body would make the interpreter index
// out of range, so Exec must return an error instead of running it.
func TestWasmRejectsInvalidModules(t *testing.T) {
	for name, code := range map[string][]byte{
		"i64.add on an empty stack": {wasm.OpI64Add, wasm.OpEnd},
		"local.get 9":               {wasm.OpLocalGet, 9, wasm.OpEnd},
		"br 5":                      {wasm.OpBr, 5, wasm.OpEnd},
	} {
		m := &wasm.Module{}
		ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti, Code: code})
		m.Exports = append(m.Exports, wasm.Export{Name: "main", Kind: wasm.ExtFunc, Idx: 0})
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Exec panicked: %v", r)
				}
			}()
			if _, _, err := Exec(backend.Wasm, nil, m.Encode(), io.Discard, 0, 1); err == nil {
				t.Error("Exec ran a module that does not validate")
			}
		})
	}
}

// TestWasmLinkedModules: separate compilation works for the wasm target —
// a multi-module program links and runs identically on both backends under
// both cross-module resolution modes. Covers a synthetic two-module set and
// the shipped examples/modules three-module chain.
func TestWasmLinkedModules(t *testing.T) {
	sources := []string{
		`module mathutil;
export fn square(x: i64) -> i64 { x * x }
export fn cube(x: i64) -> i64 { x * square(x) }
`,
		`module app;
import fn square(i64) -> i64 from mathutil;
import fn cube(i64) -> i64 from mathutil;
fn main(n: i64) -> i64 { square(n) + cube(n) }
`,
	}
	checkLinked(t, "synthetic", sources)

	var exampleSet []string
	for _, f := range []string{"a.imp", "b.imp", "c.imp"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", f))
		if err != nil {
			t.Fatal(err)
		}
		exampleSet = append(exampleSet, string(src))
	}
	checkLinked(t, "examples/modules", exampleSet)
}

func checkLinked(t *testing.T, name string, sources []string) {
	t.Helper()
	for _, lm := range []string{"trampoline", "mangle"} {
		vmRes, err := compileRequest(&Request{Sources: sources, Link: lm})
		if err != nil {
			t.Fatalf("%s/%s: vm link: %v", name, lm, err)
		}
		wRes, err := compileRequest(&Request{Sources: sources, Link: lm, Target: "wasm"})
		if err != nil {
			t.Fatalf("%s/%s: wasm link: %v", name, lm, err)
		}
		for _, n := range []int64{0, 3, -5} {
			var vout, wout bytes.Buffer
			vret, _, verr := Exec(vmRes.Target, vmRes.Program, vmRes.Wasm, &vout, 0, n)
			wret, _, werr := Exec(wRes.Target, wRes.Program, wRes.Wasm, &wout, 0, n)
			if verr != nil || werr != nil {
				t.Fatalf("%s/%s: n=%d: vm err=%v wasm err=%v", name, lm, n, verr, werr)
			}
			if vret != wret {
				t.Errorf("%s/%s: n=%d: vm=%d wasm=%d", name, lm, n, vret, wret)
			}
			if vout.String() != wout.String() {
				t.Errorf("%s/%s: n=%d: output disagreement:\nvm:\n%s\nwasm:\n%s",
					name, lm, n, vout.String(), wout.String())
			}
		}
	}
}
