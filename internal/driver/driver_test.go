package driver

import (
	"strings"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	vmbackend "thorin/internal/backend/vm"
	"thorin/internal/ir"
	"thorin/internal/transform"
)

// runBoth executes src under full optimization and no optimization and
// requires identical results.
func runBoth(t *testing.T, src string, want int64, args ...int64) {
	t.Helper()
	got, _, err := runSpec(src, transform.O2, nil, args...)
	if err != nil {
		t.Fatalf("opt run: %v", err)
	}
	if got != want {
		t.Errorf("opt: got %d, want %d", got, want)
	}
	got, _, err = runSpec(src, transform.O0, nil, args...)
	if err != nil {
		t.Fatalf("noopt run: %v", err)
	}
	if got != want {
		t.Errorf("noopt: got %d, want %d", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	runBoth(t, `fn main() -> i64 { (3 + 4) * 5 - 100 / 4 % 7 }`, 31)
}

func TestFloatArithmetic(t *testing.T) {
	runBoth(t, `fn main() -> i64 { (1.5 * 4.0 + 0.25) as i64 }`, 6)
}

func TestConditionals(t *testing.T) {
	runBoth(t, `fn main(n: i64) -> i64 {
		if n < 0 { -n } else if n == 0 { 42 } else { n }
	}`, 17, -17)
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right of && must not execute.
	runBoth(t, `fn main(n: i64) -> i64 {
		if n != 0 && 100 / n > 5 { 1 } else { 0 }
	}`, 0, 0)
}

func TestWhileLoop(t *testing.T) {
	runBoth(t, `fn main(n: i64) -> i64 {
		let mut s = 0;
		let mut i = 0;
		while i < n { s = s + i; i = i + 1; }
		s
	}`, 4950, 100)
}

func TestForLoopBreakContinue(t *testing.T) {
	runBoth(t, `fn main() -> i64 {
		let mut s = 0;
		for i in 0 .. 100 {
			if i % 2 == 0 { continue; }
			if i > 20 { break; }
			s = s + i;
		}
		s
	}`, 1+3+5+7+9+11+13+15+17+19)
}

func TestRecursion(t *testing.T) {
	runBoth(t, `
fn fib(n: i64) -> i64 { if n < 2 { n } else { fib(n-1) + fib(n-2) } }
fn main(n: i64) -> i64 { fib(n) }`, 6765, 20)
}

func TestMutualRecursion(t *testing.T) {
	runBoth(t, `
fn is_even(n: i64) -> bool { if n == 0 { true } else { is_odd(n - 1) } }
fn is_odd(n: i64) -> bool { if n == 0 { false } else { is_even(n - 1) } }
fn main(n: i64) -> i64 { if is_even(n) { 1 } else { 0 } }`, 1, 100)
}

func TestTailRecursionDeep(t *testing.T) {
	// 1e6-deep tail recursion must not overflow (tail calls in the VM).
	runBoth(t, `
fn count(i: i64, n: i64, acc: i64) -> i64 {
	if i >= n { acc } else { count(i + 1, n, acc + i) }
}
fn main(n: i64) -> i64 { count(0, n, 0) }`, 499999500000, 1000000)
}

func TestArrays(t *testing.T) {
	runBoth(t, `fn main(n: i64) -> i64 {
		let a = [0; n];
		for i in 0 .. n { a[i] = i * i; }
		let mut s = 0;
		for i in 0 .. len(a) { s = s + a[i]; }
		s
	}`, 285, 10)
}

func TestTuples(t *testing.T) {
	runBoth(t, `
fn divmod(a: i64, b: i64) -> (i64, i64) { (a / b, a % b) }
fn main() -> i64 {
	let r = divmod(17, 5);
	r.0 * 100 + r.1
}`, 302)
}

func TestHigherOrderKnown(t *testing.T) {
	runBoth(t, `
fn apply(f: fn(i64) -> i64, x: i64) -> i64 { f(x) }
fn main(n: i64) -> i64 { apply(|v: i64| v * v, n) }`, 144, 12)
}

func TestClosureCapture(t *testing.T) {
	runBoth(t, `
fn make_adder_result(n: i64, x: i64) -> i64 {
	let add = |y: i64| y + n;
	add(x) + add(0)
}
fn main() -> i64 { make_adder_result(10, 5) }`, 25)
}

func TestClosureCapturesMutableCell(t *testing.T) {
	runBoth(t, `
fn main() -> i64 {
	let mut total = 0;
	let bump = |v: i64| { total = total + v; };
	bump(3);
	bump(4);
	total
}`, 7)
}

func TestFunctionAsValue(t *testing.T) {
	runBoth(t, `
fn double(x: i64) -> i64 { x * 2 }
fn triple(x: i64) -> i64 { x * 3 }
fn pick(which: bool) -> fn(i64) -> i64 {
	if which { double } else { triple }
}
fn main(n: i64) -> i64 { pick(n > 0)(10) + pick(n < 0)(10) }`, 50, 1)
}

func TestMapReducePipeline(t *testing.T) {
	src := `
fn map(a: [i64], f: fn(i64) -> i64) -> [i64] {
	let out = [0; len(a)];
	for i in 0 .. len(a) { out[i] = f(a[i]); }
	out
}
fn fold(a: [i64], init: i64, f: fn(i64, i64) -> i64) -> i64 {
	let mut acc = init;
	for i in 0 .. len(a) { acc = f(acc, a[i]); }
	acc
}
fn main(n: i64) -> i64 {
	let xs = [0; n];
	for i in 0 .. n { xs[i] = i; }
	fold(map(xs, |x: i64| x * x), 0, |a: i64, b: i64| a + b)
}`
	runBoth(t, src, 285, 10)

	// The optimized build must eliminate every closure; the unoptimized
	// build must pay for them on every element.
	_, cOpt, err := runSpec(src, transform.O2, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, cNo, err := runSpec(src, transform.O0, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cOpt.IndirectCalls != 0 || cOpt.ClosureAllocs != 0 {
		t.Errorf("optimized: want zero closure overhead, got %+v", cOpt)
	}
	if cNo.IndirectCalls < 2000 {
		t.Errorf("unoptimized: expected >=2000 indirect calls, got %d", cNo.IndirectCalls)
	}
	if cOpt.Instructions >= cNo.Instructions {
		t.Errorf("optimized build must execute fewer instructions (%d vs %d)",
			cOpt.Instructions, cNo.Instructions)
	}
}

func TestComposedClosures(t *testing.T) {
	runBoth(t, `
fn compose(f: fn(i64) -> i64, g: fn(i64) -> i64) -> fn(i64) -> i64 {
	|x: i64| f(g(x))
}
fn main(n: i64) -> i64 {
	let h = compose(|x: i64| x + 1, |x: i64| x * 2);
	h(n)
}`, 21, 10)
}

func TestPrintOutput(t *testing.T) {
	var sb strings.Builder
	_, _, err := runSpec(`
fn main() -> i64 {
	print(7);
	print(2.5);
	print_char('h');
	print_char('i');
	print_char('\n');
	0
}`, transform.O2, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != "7\n2.5\nhi\n" {
		t.Fatalf("output %q", sb.String())
	}
}

func TestNestedLoopsMatrix(t *testing.T) {
	runBoth(t, `
fn main(n: i64) -> i64 {
	let a = [0; n * n];
	for i in 0 .. n {
		for j in 0 .. n {
			a[i * n + j] = i * j;
		}
	}
	let mut s = 0;
	for k in 0 .. n * n { s = s + a[k]; }
	s
}`, 2025, 10) // (sum 0..9)^2 = 45^2
}

func TestOptimizedIRIsCFF(t *testing.T) {
	src := `
fn apply(f: fn(i64) -> i64, x: i64) -> i64 { f(x) }
fn main(n: i64) -> i64 { apply(|v: i64| v + 1, n) }`
	res, err := CompileSpec(src, transform.O2, analysis.ScheduleSmart, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IRStats.HigherOrder != 0 {
		t.Errorf("optimized world must be in CFF, %d higher-order conts remain",
			res.IRStats.HigherOrder)
	}
	noopt, err := CompileSpec(src, transform.O0, analysis.ScheduleSmart, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if noopt.Stats.Closure.Closures == 0 {
		t.Error("unoptimized lowering must produce closures")
	}
}

func TestMem2RegPromotesLocals(t *testing.T) {
	src := `fn main(n: i64) -> i64 {
		let mut s = 0;
		let mut i = 0;
		while i < n { s = s + i; i = i + 1; }
		s
	}`
	got, c, err := runSpec(src, transform.O2, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 499500 {
		t.Fatalf("got %d", got)
	}
	if c.Loads != 0 || c.Stores != 0 {
		t.Errorf("optimized loop must run without memory traffic: %+v", c)
	}
}

func TestFloatComputation(t *testing.T) {
	var sb strings.Builder
	_, _, err := runSpec(`
fn norm(x: f64, y: f64) -> f64 { x * x + y * y }
fn main() -> i64 {
	let mut acc = 0.0;
	for i in 0 .. 100 {
		acc = acc + norm(i as f64, 2.0);
	}
	print(acc);
	acc as i64
}`, transform.O2, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// sum i^2 for i<100 = 328350, plus 100*4 = 400.
	if !strings.HasPrefix(sb.String(), "328750") {
		t.Fatalf("output %q", sb.String())
	}
}

func TestDeterministicCounters(t *testing.T) {
	src := `fn main(n: i64) -> i64 { let mut s = 0; for i in 0 .. n { s = s + i; } s }`
	_, c1, err := runSpec(src, transform.O2, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := runSpec(src, transform.O2, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("counters must be deterministic:\n%+v\n%+v", c1, c2)
	}
}

func TestContificationFusesSharedReturn(t *testing.T) {
	// step is called from both branch arms; both calls return to the same
	// join point, so contification turns them into jumps — zero runtime
	// calls remain.
	src := `
fn step(x: i64) -> i64 { x * 3 + 1 }
fn main(n: i64) -> i64 {
	let r = if n % 2 == 0 { step(n) } else { step(n + 1) };
	r + 1
}`
	got, c, err := runSpec(src, transform.O2, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 26 { // step(8)+1 = 25+1
		t.Fatalf("got %d, want 26", got)
	}
	if c.DirectCalls+c.TailCalls != 0 {
		t.Errorf("contified program must not perform calls: %+v", c)
	}
}

func TestIRTextRoundTripExecutes(t *testing.T) {
	// Compile a program, dump the optimized IR, parse it back, compile the
	// reparsed world, and require identical behavior.
	src := `
fn fib(n: i64) -> i64 { if n < 2 { n } else { fib(n-1) + fib(n-2) } }
fn main(n: i64) -> i64 { fib(n) }`
	res, err := CompileSpec(src, transform.O2, analysis.ScheduleSmart, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dump := ir.DumpString(res.World)
	w2, err := ir.ParseWorld(dump)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, dump)
	}
	if err := ir.Verify(w2); err != nil {
		t.Fatal(err)
	}
	prog2, err := vmbackend.Compile(w2, "main", vmbackend.Config{Mode: analysis.ScheduleSmart})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Exec(res.Target, res.Program, res.Wasm, nil, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Exec(backend.VM, prog2, nil, nil, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-tripped IR computes %d, original %d", got, want)
	}
}
