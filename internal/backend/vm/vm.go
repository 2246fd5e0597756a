// Package vmbackend lowers a Thorin world in control-flow form (plus
// closure records for any residual higher-order values) into vm bytecode.
// It is the VM target of the backend registry; the target-neutral half of
// the work (discovery order, schedule, terminator classification) lives in
// internal/backend/lower, and this package owns instruction selection and
// register assignment only.
//
// The emitted program is byte-identical to the pre-split codegen package:
// registers are assigned on demand in emission order, literals are
// materialized into a const prologue of the entry block, and functions are
// discovered depth-first from the extern roots.
package vmbackend

import (
	"fmt"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/backend/lower"
	"thorin/internal/ir"
	"thorin/internal/vm"
)

func init() { backend.Register(Backend{}) }

// Backend is the VM target.
type Backend struct{}

// Target reports the backend's registry name.
func (Backend) Target() backend.Target { return backend.VM }

// Compile lowers every extern returning continuation of w (plus all
// functions they reference) into a vm.Program wrapped in a backend Output.
func (Backend) Compile(w *ir.World, mainName string, cfg backend.Config) (*backend.Output, error) {
	prog, err := Compile(w, mainName, Config{Mode: cfg.Mode})
	if err != nil {
		return nil, err
	}
	return &backend.Output{VM: prog}, nil
}

// Config controls code generation (kept for direct callers; the registry
// path maps backend.Config onto it).
type Config struct {
	// Mode selects primop placement (default ScheduleSmart).
	Mode analysis.Mode
}

// Compile lowers w into a vm.Program. mainName selects the entry point.
func Compile(w *ir.World, mainName string, cfg Config) (*vm.Program, error) {
	u, err := lower.NewUnit(w, cfg.Mode)
	if err != nil {
		return nil, backend.Errf(backend.VM, "", err)
	}
	g := &generator{
		u:    u,
		prog: &vm.Program{Main: -1},
	}
	for _, c := range u.Funcs() {
		g.declare(c) // materialize slots for the extern roots
	}
	for c := u.Next(); c != nil; c = u.Next() {
		if err := g.emitFunc(c); err != nil {
			return nil, backend.Errf(backend.VM, c.Name(), err)
		}
	}
	main, err := u.Main(mainName)
	if err != nil {
		return nil, backend.Errf(backend.VM, "", err)
	}
	g.prog.Main = main
	return g.prog, nil
}

// generator drives the whole-program emission: the lower.Unit owns the
// discovery order, the generator mirrors it into vm.Func slots.
type generator struct {
	u    *lower.Unit
	prog *vm.Program
}

// declare reserves the vm.Func slot for c, mirroring the unit's index.
func (g *generator) declare(c *ir.Continuation) int {
	idx := g.u.Declare(c)
	for len(g.prog.Funcs) <= idx {
		g.prog.Funcs = append(g.prog.Funcs, nil)
	}
	if g.prog.Funcs[idx] == nil {
		g.prog.Funcs[idx] = &vm.Func{Name: c.Name()}
	}
	return idx
}

// globalIdx registers an OpGlobal cell and materializes its initializer.
func (g *generator) globalIdx(p *ir.PrimOp) (int, error) {
	n := len(g.u.Globals())
	idx, err := g.u.GlobalIndex(p)
	if err != nil {
		return 0, err
	}
	if idx == n { // newly registered: append its initial value
		l := lower.GlobalInit(p)
		g.prog.Globals = append(g.prog.Globals, vm.Value{I: l.I, F: l.F})
	}
	return idx, nil
}

// fnEmitter holds the per-function emission state.
type fnEmitter struct {
	g      *generator
	f      *lower.Func
	fn     *vm.Func
	regs   map[ir.Def]int
	code   []vm.Instr
	consts []vm.Instr // literal materialization, prepended to the entry block
}

func (g *generator) emitFunc(c *ir.Continuation) error {
	f, err := g.u.NewFunc(c)
	if err != nil {
		return err
	}
	idx, _ := g.u.FuncIndex(c)
	e := &fnEmitter{
		g:    g,
		f:    f,
		fn:   g.prog.Funcs[idx],
		regs: map[ir.Def]int{},
	}
	return e.run()
}

// newReg allocates a fresh register.
func (e *fnEmitter) newReg() int {
	r := e.fn.NumRegs
	e.fn.NumRegs++
	return r
}

// regOf returns the register holding d, materializing literals on demand
// and resolving aliases (extracts of effect results, bitcasts, run/hlt).
func (e *fnEmitter) regOf(d ir.Def) (int, error) {
	if r, ok := e.regs[d]; ok {
		return r, nil
	}
	switch d := d.(type) {
	case *ir.Literal:
		r := e.newReg()
		if pt, ok := d.Type().(*ir.PrimType); ok && pt.Tag.IsFloat() {
			e.consts = append(e.consts, vm.Instr{Op: vm.OpConstF, A: r, F: d.F})
		} else {
			e.consts = append(e.consts, vm.Instr{Op: vm.OpConstI, A: r, Imm: d.I})
		}
		e.regs[d] = r
		return r, nil
	case *ir.Param:
		return 0, fmt.Errorf("%s: param %s of %s has no register (unscoped use?)",
			e.f.Entry.Name(), d, d.Cont().Name())
	case *ir.PrimOp:
		switch d.OpKind() {
		case ir.OpExtract:
			if src, ok := d.Op(0).(*ir.PrimOp); ok && src.OpKind().HasMemEffect() {
				if idx, _ := ir.LitValue(d.Op(1)); idx == 1 {
					r, err := e.regOf(src)
					if err != nil {
						return 0, err
					}
					e.regs[d] = r
					return r, nil
				}
			}
		case ir.OpBitcast, ir.OpRun, ir.OpHlt:
			r, err := e.regOf(d.Op(0))
			if err != nil {
				return 0, err
			}
			e.regs[d] = r
			return r, nil
		}
		return 0, fmt.Errorf("%s: primop %s has no register (not scheduled?)",
			e.f.Entry.Name(), d.OpKind())
	case *ir.Continuation:
		return 0, fmt.Errorf("%s: continuation %s used as value; run closure conversion first",
			e.f.Entry.Name(), d.Name())
	}
	return 0, fmt.Errorf("%s: cannot register %v", e.f.Entry.Name(), d)
}

func (e *fnEmitter) run() error {
	// Function parameters: non-mem, non-ret params get argument registers.
	for _, p := range lower.ValParams(e.f.Entry, e.f.Entry.RetParam()) {
		r := e.newReg()
		e.regs[p] = r
		e.fn.ParamRegs = append(e.fn.ParamRegs, r)
	}

	// Block param registers for every CFG node.
	blocks := make([]vm.Block, len(e.f.Nodes()))
	for i, n := range e.f.Nodes() {
		blocks[i].Name = n.Cont.Name()
		if n.Cont == e.f.Entry {
			continue // entry params are the function params
		}
		for _, p := range lower.ValParams(n.Cont, nil) {
			r := e.newReg()
			e.regs[p] = r
			blocks[i].ParamRegs = append(blocks[i].ParamRegs, r)
		}
	}

	// Emit each block: scheduled primops then the terminator.
	var bodies [][]vm.Instr
	for _, n := range e.f.Nodes() {
		var body []vm.Instr
		for _, p := range e.f.Sched.Blocks[n.Index].PrimOps {
			ins, err := e.emitPrimOp(p)
			if err != nil {
				return err
			}
			body = append(body, ins...)
		}
		term, err := e.emitTerminator(n.Cont)
		if err != nil {
			return fmt.Errorf("%s (in %s)", err, n.Cont.Name())
		}
		body = append(body, term...)
		bodies = append(bodies, body)
	}

	// Layout: consts first (part of the entry block), then block bodies.
	e.code = append(e.code, e.consts...)
	for i, body := range bodies {
		blocks[i].Start = len(e.code)
		if i == 0 {
			blocks[i].Start = 0 // entry includes the consts
		}
		e.code = append(e.code, body...)
	}
	e.fn.Blocks = blocks
	e.fn.Code = e.code
	return nil
}

// valArgs returns the registers of the non-mem arguments in args.
func (e *fnEmitter) valArgs(args []ir.Def) ([]int, error) {
	var out []int
	for _, a := range lower.ValArgs(args) {
		r, err := e.regOf(a)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
