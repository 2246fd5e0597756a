package driver

import "testing"

// Regression: a mutable let inside a non-block lambda body (if-expression)
// captured by a nested lambda must still be boxed in the SSA baseline.
func TestSSABoxingInNonBlockLambdaBody(t *testing.T) {
	src := `
fn call(f: fn(i64) -> i64, x: i64) -> i64 { f(x) }
fn main(n: i64) -> i64 {
	let outer = |x: i64| if x > 0 {
		let mut m = 0;
		let bump = || { m = m + x; };
		bump();
		bump();
		m
	} else { 0 };
	call(outer, n)
}`
	want := int64(14)
	got, _, err := runSSA(src, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ssa: got %d, want %d", got, want)
	}
	runBoth(t, src, want, 7)
}
