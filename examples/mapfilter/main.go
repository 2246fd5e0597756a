// mapfilter demonstrates the paper's core promise on a data pipeline:
// higher-order combinators (map / filter / fold) written naturally in the
// frontend language cost nothing after lambda mangling — and exactly what
// you fear without it.
package main

import (
	"fmt"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/transform"
)

const src = `
fn map(a: [i64], f: fn(i64) -> i64) -> [i64] {
	let out = [0; len(a)];
	for i in 0 .. len(a) { out[i] = f(a[i]); }
	out
}

fn filter_fold(a: [i64], keep: fn(i64) -> bool, f: fn(i64, i64) -> i64) -> i64 {
	let mut acc = 0;
	for i in 0 .. len(a) {
		if keep(a[i]) { acc = f(acc, a[i]); }
	}
	acc
}

fn main(n: i64) -> i64 {
	let xs = [0; n];
	for i in 0 .. n { xs[i] = i; }
	// sum of squares of the multiples of three below n
	filter_fold(map(xs, |x: i64| x * x), |x: i64| x % 9 == 0, |a: i64, b: i64| a + b)
}
`

func main() {
	const n = 100000

	fmt.Println("pipeline: sum of squares of multiples of three, n =", n)
	fmt.Println()
	fmt.Printf("%-22s %14s %12s %12s %10s\n",
		"configuration", "instructions", "closures", "icalls", "result")

	run := func(label, spec string) {
		res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{})
		if err != nil {
			panic(err)
		}
		got, c, err := driver.Exec(res.Target, res.Program, res.Wasm, nil, 0, n)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %14d %12d %12d %10d\n",
			label, c.Instructions, c.ClosureAllocs, c.IndirectCalls, got)
	}
	run("thorin -O2 (mangled)", transform.O2)
	run("thorin -O0 (closures)", transform.O0)

	prog, _, err := driver.CompileSSA(src)
	if err != nil {
		panic(err)
	}
	got, c, err := driver.Exec(backend.VM, prog, nil, nil, 0, n)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-22s %14d %12d %12d %10d\n",
		"classical ssa", c.Instructions, c.ClosureAllocs, c.IndirectCalls, got)

	fmt.Println()
	fmt.Println("With lambda mangling the three lambdas vanish at compile time:")
	fmt.Println("zero closures, zero indirect calls — abstraction without overhead.")
}
