// Quickstart: build a Thorin program directly through the IR API, optimize
// it, compile it to bytecode and run it.
//
// The program is the paper's running example shape — a higher-order apply
// whose function argument is known, which lambda mangling turns into
// straight-line code:
//
//	fn double(x) = x * 2
//	fn apply(f, x) = f(x)
//	fn main(n) = apply(double, n)
package main

import (
	"fmt"
	"os"

	"thorin/internal/analysis"
	vmbackend "thorin/internal/backend/vm"
	"thorin/internal/ir"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

func main() {
	w := ir.NewWorld()
	i64 := w.PrimType(ir.PrimI64)
	mem := w.MemType()
	retT := w.FnType(mem, i64)            // fn(mem, i64): a return continuation
	fnT := w.FnType(mem, i64, retT)       // fn(mem, i64, ret): an i64 -> i64 function
	hofT := w.FnType(mem, fnT, i64, retT) // apply's type

	// double(mem, x, ret) = ret(mem, x * 2)
	double := w.Continuation(fnT, "double")
	double.Jump(double.Param(2), double.Param(0),
		w.Arith(ir.OpMul, double.Param(1), w.LitI64(2)))

	// apply(mem, f, x, ret) = f(mem, x, ret) — higher order!
	apply := w.Continuation(hofT, "apply")
	apply.Jump(apply.Param(1), apply.Param(0), apply.Param(2), apply.Param(3))

	// main(mem, n, ret) = apply(mem, double, n, ret)
	mainC := w.Continuation(w.FnType(mem, i64, retT), "main")
	mainC.SetExtern(true)
	mainC.Jump(apply, mainC.Param(0), double, mainC.Param(1), mainC.Param(2))

	fmt.Println("=== IR before optimization ===")
	ir.Print(os.Stdout, w)

	// Lambda mangling converts the program to control-flow form: the
	// higher-order parameter of apply disappears.
	stats, _, err := transform.RunPipeline(w, transform.O2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("=== optimizer: %d call(s) specialized to control-flow form ===\n\n",
		stats.CFF.Specialized)

	fmt.Println("=== IR after optimization ===")
	ir.Print(os.Stdout, w)

	prog, err := vmbackend.Compile(w, "main", vmbackend.Config{Mode: analysis.ScheduleSmart})
	if err != nil {
		panic(err)
	}
	fmt.Println("=== bytecode ===")
	vm.Disassemble(os.Stdout, prog)

	m := vm.New(prog, os.Stdout)
	res, err := m.Run(vm.Value{I: 21})
	if err != nil {
		panic(err)
	}
	fmt.Printf("main(21) = %d  (indirect calls at runtime: %d)\n",
		res[0].I, m.Counters.IndirectCalls)
}
