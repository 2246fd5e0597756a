package driver

import (
	"io"
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// runSpec compiles src under spec and runs main with i64 arguments on the
// VM under the default step budget.
func runSpec(src, spec string, out io.Writer, args ...int64) (int64, vm.Counters, error) {
	return runConfig(src, spec, Config{}, out, args...)
}

// runVerified is runSpec with the pass manager's verify-each debug mode
// on: ir.Verify runs after every pass, so a pass that corrupts the IR fails
// the differential suite by name instead of as a downstream miscompile.
func runVerified(src, spec string, out io.Writer, args ...int64) (int64, vm.Counters, error) {
	return runConfig(src, spec, Config{VerifyEach: true}, out, args...)
}

func runConfig(src, spec string, cfg Config, out io.Writer, args ...int64) (int64, vm.Counters, error) {
	res, err := CompileSpec(src, spec, analysis.ScheduleSmart, cfg)
	if err != nil {
		return 0, vm.Counters{}, err
	}
	return Exec(res.Target, res.Program, res.Wasm, out, 0, args...)
}

// runSSA compiles src through the SSA baseline and runs main on the VM
// under the default step budget.
func runSSA(src string, out io.Writer, args ...int64) (int64, vm.Counters, error) {
	prog, _, err := CompileSSA(src)
	if err != nil {
		return 0, vm.Counters{}, err
	}
	return Exec(backend.VM, prog, nil, out, 0, args...)
}

// differentialPrograms exercise every language feature; all three pipelines
// (Thorin optimized, Thorin unoptimized, classical SSA baseline) must agree
// on results and printed output.
var differentialPrograms = []struct {
	name string
	src  string
	args []int64
	want int64
}{
	{"gcd", `
fn gcd(a: i64, b: i64) -> i64 { if b == 0 { a } else { gcd(b, a % b) } }
fn main(a: i64, b: i64) -> i64 { gcd(a, b) }`, []int64{1071, 462}, 21},

	{"collatz", `
fn main(n: i64) -> i64 {
	let mut steps = 0;
	let mut x = n;
	while x != 1 {
		if x % 2 == 0 { x = x / 2; } else { x = 3 * x + 1; }
		steps = steps + 1;
	}
	steps
}`, []int64{27}, 111},

	{"ackermann", `
fn ack(m: i64, n: i64) -> i64 {
	if m == 0 { n + 1 }
	else if n == 0 { ack(m - 1, 1) }
	else { ack(m - 1, ack(m, n - 1)) }
}
fn main() -> i64 { ack(2, 3) }`, nil, 9},

	{"sieve", `
fn main(n: i64) -> i64 {
	let composite = [false; n];
	let mut count = 0;
	for i in 2 .. n {
		if !composite[i] {
			count = count + 1;
			let mut j = i * i;
			while j < n {
				composite[j] = true;
				j = j + i;
			}
		}
	}
	count
}`, []int64{1000}, 168},

	{"hof-pipeline", `
fn map(a: [i64], f: fn(i64) -> i64) -> [i64] {
	let out = [0; len(a)];
	for i in 0 .. len(a) { out[i] = f(a[i]); }
	out
}
fn filter_sum(a: [i64], keep: fn(i64) -> bool) -> i64 {
	let mut s = 0;
	for i in 0 .. len(a) { if keep(a[i]) { s = s + a[i]; } }
	s
}
fn main(n: i64) -> i64 {
	let xs = [0; n];
	for i in 0 .. n { xs[i] = i; }
	filter_sum(map(xs, |x: i64| x * 3), |x: i64| x % 2 == 0)
}`, []int64{50}, 1800},

	{"curry", `
fn adder(n: i64) -> fn(i64) -> i64 { |x: i64| x + n }
fn main(a: i64, b: i64) -> i64 { adder(a)(b) + adder(b)(a) }`, []int64{3, 4}, 14},

	{"counter-cells", `
fn main() -> i64 {
	let mut c1 = 0;
	let mut c2 = 100;
	let bump1 = || { c1 = c1 + 1; };
	let bump2 = || { c2 = c2 + 10; };
	bump1(); bump2(); bump1();
	c1 * 1000 + c2
}`, nil, 2110},

	{"float-mandel-point", `
fn escapes(cr: f64, ci: f64, limit: i64) -> i64 {
	let mut zr = 0.0;
	let mut zi = 0.0;
	let mut i = 0;
	while i < limit {
		let zr2 = zr * zr - zi * zi + cr;
		let zi2 = 2.0 * zr * zi + ci;
		zr = zr2; zi = zi2;
		if zr * zr + zi * zi > 4.0 { return i; }
		i = i + 1;
	}
	limit
}
fn main() -> i64 { escapes(0.3, 0.5, 1000) + escapes(-1.0, 0.0, 50) }`, nil, 1050},

	{"tuple-swap", `
fn minmax(a: i64, b: i64) -> (i64, i64) {
	if a < b { (a, b) } else { (b, a) }
}
fn main(a: i64, b: i64) -> i64 {
	let r = minmax(a, b);
	r.0 * 1000 + r.1
}`, []int64{42, 7}, 7042},

	{"shadowing", `
fn main(n: i64) -> i64 {
	let x = n;
	let y = { let x = x * 2; x + 1 };
	x + y
}`, []int64{10}, 31},

	{"early-return", `
fn find(a: [i64], v: i64) -> i64 {
	for i in 0 .. len(a) {
		if a[i] == v { return i; }
	}
	-1
}
fn main(n: i64) -> i64 {
	let a = [0; n];
	for i in 0 .. n { a[i] = i * 7 % n; }
	find(a, 3) + find(a, -5)
}`, []int64{20}, 8}, // index 9 (9*7%20==3) plus -1 for the missing value

	{"bitops", `
fn main(n: i64) -> i64 {
	((n << 3) ^ (n >> 1)) & (n | 255)
}`, []int64{1234}, ((1234 << 3) ^ (1234 >> 1)) & (1234 | 255)},
}

func TestDifferentialPipelines(t *testing.T) {
	for _, tc := range differentialPrograms {
		t.Run(tc.name, func(t *testing.T) {
			var outOpt, outNo, outSSA strings.Builder
			gotOpt, _, err := runVerified(tc.src, transform.O2, &outOpt, tc.args...)
			if err != nil {
				t.Fatalf("thorin-opt: %v", err)
			}
			gotNo, _, err := runVerified(tc.src, transform.O0, &outNo, tc.args...)
			if err != nil {
				t.Fatalf("thorin-noopt: %v", err)
			}
			gotSSA, _, err := runSSA(tc.src, &outSSA, tc.args...)
			if err != nil {
				t.Fatalf("ssa: %v", err)
			}
			if gotOpt != tc.want {
				t.Errorf("thorin-opt: got %d, want %d", gotOpt, tc.want)
			}
			if gotNo != tc.want {
				t.Errorf("thorin-noopt: got %d, want %d", gotNo, tc.want)
			}
			if gotSSA != tc.want {
				t.Errorf("ssa: got %d, want %d", gotSSA, tc.want)
			}
			if outOpt.String() != outNo.String() || outOpt.String() != outSSA.String() {
				t.Errorf("output mismatch:\nopt:  %q\nno:   %q\nssa:  %q",
					outOpt.String(), outNo.String(), outSSA.String())
			}
		})
	}
}

// TestMangledBeatsBaselineOnHOF checks the paper's headline claim on this
// substrate: with lambda mangling, higher-order code costs the same as
// first-order code, while both the unoptimized Thorin lowering and the
// classical SSA baseline pay per-call closure overhead.
func TestMangledBeatsBaselineOnHOF(t *testing.T) {
	src := `
fn fold(a: [i64], init: i64, f: fn(i64, i64) -> i64) -> i64 {
	let mut acc = init;
	for i in 0 .. len(a) { acc = f(acc, a[i]); }
	acc
}
fn main(n: i64) -> i64 {
	let xs = [0; n];
	for i in 0 .. n { xs[i] = i; }
	fold(xs, 0, |a: i64, b: i64| a + b)
}`
	const n = 10000
	_, cOpt, err := runVerified(src, transform.O2, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	_, cSSA, err := runSSA(src, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if cOpt.IndirectCalls != 0 {
		t.Errorf("mangled build must have no indirect calls, got %d", cOpt.IndirectCalls)
	}
	if cSSA.IndirectCalls < n {
		t.Errorf("baseline must call the closure per element, got %d", cSSA.IndirectCalls)
	}
	if cOpt.Instructions >= cSSA.Instructions {
		t.Errorf("mangled build must execute fewer instructions: %d vs %d",
			cOpt.Instructions, cSSA.Instructions)
	}
}

func TestStaticsAndAnnotations(t *testing.T) {
	// static globals shared across functions, plus a @-annotated function
	// that the partial evaluator must force.
	src := `
static counter = 0;
static bias = -3;

@fn scale(x: i64, k: i64) -> i64 { x * k }

fn tick() -> i64 {
	counter = counter + 1;
	counter
}

fn main(n: i64) -> i64 {
	for i in 0 .. n { tick(); }
	scale(counter, 4) + bias
}`
	want := int64(4*7 - 3)
	for _, arm := range []struct {
		name string
		run  func() (int64, error)
	}{
		{"thorin-opt", func() (int64, error) { v, _, err := runVerified(src, transform.O2, nil, 7); return v, err }},
		{"thorin-noopt", func() (int64, error) { v, _, err := runVerified(src, transform.O0, nil, 7); return v, err }},
		{"ssa", func() (int64, error) { v, _, err := runSSA(src, nil, 7); return v, err }},
	} {
		got, err := arm.run()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if got != want {
			t.Errorf("%s: got %d, want %d", arm.name, got, want)
		}
	}
}

func TestStaticFromLambda(t *testing.T) {
	// A lambda mutating a static global (no capture needed).
	src := `
static acc = 100;
fn each(n: i64, f: fn(i64)) { for i in 0 .. n { f(i); } }
fn main(n: i64) -> i64 {
	each(n, |i: i64| { acc = acc + i; });
	acc
}`
	runBoth(t, src, 100+45, 10)
	got, _, err := runSSA(src, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 145 {
		t.Errorf("ssa: got %d, want 145", got)
	}
}
