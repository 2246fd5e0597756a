package impala

import (
	"strings"
	"testing"

	"thorin/internal/vm"
)

func interpRun(t *testing.T, src string, args ...int64) (IValue, string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	var out strings.Builder
	in, err := NewInterp(prog, &out, 0)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	v, err := in.Run(args...)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return v, out.String()
}

func TestInterpBasics(t *testing.T) {
	cases := []struct {
		src  string
		args []int64
		want int64
	}{
		{`fn main() -> i64 { 1 + 2 * 3 }`, nil, 7},
		{`fn main(n: i64) -> i64 { if n > 0 { n } else { -n } }`, []int64{-5}, 5},
		{`fn main(n: i64) -> i64 {
			let mut s = 0;
			for i in 0 .. n { s = s + i; }
			s
		}`, []int64{10}, 45},
		{`fn main(n: i64) -> i64 {
			let mut i = 0;
			while i * i < n { i = i + 1; }
			i
		}`, []int64{30}, 6},
		{`fn f(x: i64) -> i64 { x * 3 } fn main() -> i64 { f(4) }`, nil, 12},
		{`fn main() -> i64 { let g = |x: i64| x + 5; g(37) }`, nil, 42},
		{`fn main(n: i64) -> i64 {
			let a = [2; n];
			a[1] = 7;
			a[0] + a[1] + len(a)
		}`, []int64{3}, 2 + 7 + 3},
		{`fn main() -> i64 { let t = (4, 5); t.0 * 10 + t.1 }`, nil, 45},
		{`fn main() -> i64 { (2.5 * 2.0) as i64 }`, nil, 5},
		{`static g = 3; fn main() -> i64 { g = g + 1; g }`, nil, 4},
		{`fn main() -> i64 {
			let mut c = 0;
			let bump = || { c = c + 1; };
			bump(); bump();
			c
		}`, nil, 2},
		{`fn main() -> i64 {
			for i in 0 .. 100 {
				if i == 7 { return i * i; }
			}
			-1
		}`, nil, 49},
		{`fn main() -> i64 {
			let mut s = 0;
			for i in 0 .. 10 {
				if i % 2 == 0 { continue; }
				if i > 6 { break; }
				s = s + i;
			}
			s
		}`, nil, 1 + 3 + 5},
	}
	for _, tc := range cases {
		v, _ := interpRun(t, tc.src, tc.args...)
		if v.I != tc.want {
			t.Errorf("%q = %d, want %d", tc.src, v.I, tc.want)
		}
	}
}

func TestInterpShortCircuit(t *testing.T) {
	// Right side must not evaluate (division by zero would error).
	v, _ := interpRun(t, `fn main(n: i64) -> i64 {
		if n != 0 && 10 / n > 1 { 1 } else { 0 }
	}`, 0)
	if v.I != 0 {
		t.Fatalf("got %d", v.I)
	}
}

func TestInterpPrint(t *testing.T) {
	_, out := interpRun(t, `fn main() -> i64 {
		print(3);
		print(1.5);
		print_char('o');
		print_char('k');
		print_char('\n');
		0
	}`)
	if out != "3\n1.5\nok\n" {
		t.Fatalf("output %q", out)
	}
}

func TestInterpClosureCapturesLocation(t *testing.T) {
	// The closure must observe later writes to the captured mutable.
	v, _ := interpRun(t, `fn main() -> i64 {
		let mut x = 1;
		let get = || x;
		x = 42;
		get()
	}`)
	if v.I != 42 {
		t.Fatalf("capture by location broken: got %d", v.I)
	}
}

func TestInterpErrors(t *testing.T) {
	cases := []string{
		`fn main() -> i64 { 1 / 0 }`,
		`fn main() -> i64 { let a = [0; 2]; a[5] }`,
		`fn main() -> i64 { let a = [0; 2]; a[5] = 1; 0 }`,
		`fn main(n: i64) -> i64 { [0; n - 10][0] }`, // negative size at n=0
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(prog); err != nil {
			t.Fatal(err)
		}
		args := make([]int64, len(prog.Funcs[0].Params))
		in, err := NewInterp(prog, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(args...); err == nil {
			t.Errorf("interp must fail on %q", src)
		}
	}
}

// TestInterpRefusesHugeArrays runs `[0; n]` at sizes above MaxArrayLen,
// n = 2^62 among them, which must fail with an out-of-memory error rather
// than ask the host for the memory or panic in make.
func TestInterpRefusesHugeArrays(t *testing.T) {
	prog, err := Parse(`fn main(n: i64) -> i64 { let a = [0; n]; n }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{MaxArrayLen + 1, 1 << 40, 1 << 62} {
		in, err := NewInterp(prog, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(n); err == nil || !strings.Contains(err.Error(), "out of memory") {
			t.Errorf("[0; %d]: got %v, want an out-of-memory error", n, err)
		}
	}
}

// TestArrayCeilingMatchesVM pins the interpreter's array ceiling to the
// compiled targets', so the oracle refuses exactly the sizes they do.
func TestArrayCeilingMatchesVM(t *testing.T) {
	if MaxArrayLen != vm.MaxArrayLen {
		t.Fatalf("impala.MaxArrayLen = %d, vm.MaxArrayLen = %d", MaxArrayLen, vm.MaxArrayLen)
	}
}

func TestInterpFuelLimit(t *testing.T) {
	prog, err := Parse(`fn main() -> i64 { let mut i = 0; while true { i = i + 1; } i }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	in, err := NewInterp(prog, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != ErrFuel {
		t.Fatalf("want fuel error, got %v", err)
	}
	if in.Remaining() != 0 {
		t.Errorf("Remaining after fuel exhaustion = %d, want 0", in.Remaining())
	}
	if _, err := NewInterp(prog, nil, -1); err == nil {
		t.Error("negative fuel must be an explicit error")
	}
}

func TestInterpRecursionMatchesCompiler(t *testing.T) {
	v, _ := interpRun(t, `
fn ack(m: i64, n: i64) -> i64 {
	if m == 0 { n + 1 }
	else if n == 0 { ack(m - 1, 1) }
	else { ack(m - 1, ack(m, n - 1)) }
}
fn main() -> i64 { ack(2, 3) }`)
	if v.I != 9 {
		t.Fatalf("ack(2,3) = %d", v.I)
	}
}
