// ssa-playground shows the correspondence at the heart of the paper's
// section on SSA form: φ-functions of a classical SSA construction are
// exactly continuation parameters in the CPS graph. The same source is
// compiled through both frontends and the two IRs printed side by side.
package main

import (
	"fmt"
	"os"

	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/ssa"
	"thorin/internal/transform"
)

const src = `
fn main(n: i64) -> i64 {
	let mut sum = 0;
	let mut i = 0;
	while i < n {
		if i % 2 == 0 { sum = sum + i; }
		i = i + 1;
	}
	sum
}
`

func main() {
	fmt.Println("source:")
	fmt.Print(src)

	// Classical pipeline: CFG + Braun SSA construction with φ-functions.
	prog, err := impala.Parse(src)
	check(err)
	check(impala.Check(prog))
	mod, err := ssa.Build(prog)
	check(err)
	ssa.Optimize(mod)
	fmt.Println("=== classical SSA form (φ-functions at joins) ===")
	fmt.Print(mod.ByName["main"].String())
	fmt.Printf("φ-functions: %d\n\n", mod.ByName["main"].NumPhis())

	// Thorin pipeline: mutable variables are slots; mem2reg promotes them
	// to continuation parameters — the same joins, the same arity.
	w, err := impala.Compile(src)
	check(err)
	_, _, err = transform.RunPipeline(w, "cleanup")
	check(err)
	fmt.Println("=== Thorin before mem2reg (slots, loads, stores) ===")
	ir.Print(os.Stdout, w)

	st, _, err := transform.RunPipeline(w, "mem2reg,cleanup")
	check(err)
	fmt.Println("=== Thorin after mem2reg (values flow through params) ===")
	ir.Print(os.Stdout, w)
	fmt.Printf("slots promoted: %d, parameters introduced: %d\n",
		st.Mem2Reg.PromotedSlots, st.Mem2Reg.PhiParams)
	fmt.Println("\nEvery φ-function above corresponds to a parameter of a join-point")
	fmt.Println("continuation: SSA construction is just an IR transformation here.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
