// Package wasmbackend lowers a Thorin world in control-flow form into a
// WebAssembly (MVP) module. It is the wasm target of the backend
// registry; the target-neutral half (discovery order, schedule,
// terminator classification, structured control shape) lives in
// internal/backend/lower.
//
// Representation choices, kept deliberately VM-compatible so the two
// backends are differentially testable:
//
//   - Every integer, bool, pointer, array, tuple and closure value is an
//     i64; every float is an f64.
//   - Heap objects live in linear memory under a bump allocator whose
//     frontier is the module's global 0. Arrays are [len][elems...],
//     tuples are bare cells (arity is static), closures are
//     [table_index][env...].
//   - A lea is bounds-checked where it is formed (an array's length never
//     changes): $lea returns the element's byte address, or poisonAddr
//     for an index outside [0, len). Loads and stores use the address as
//     is, and only dereferencing the poison address traps, matching the
//     VM's "check at dereference, not at address formation" semantics
//     that smart scheduling relies on. MapTrap turns that linear-memory
//     fault into TrapBounds.
//   - Other traps (division by zero, negative array size, out of memory)
//     call the env.trap host import with a code so the embedder can map
//     them onto the same observable errors the VM reports. CastFI goes
//     through the env.f2i host import to inherit the platform's exact
//     float→int semantics.
package wasmbackend

import (
	"encoding/binary"
	"fmt"
	"math"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/backend/lower"
	"thorin/internal/ir"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

func init() { backend.Register(Backend{}) }

// Backend is the wasm target.
type Backend struct{}

// Target reports the backend's registry name.
func (Backend) Target() backend.Target { return backend.Wasm }

// Compile lowers w into an encoded wasm module.
func (Backend) Compile(w *ir.World, mainName string, cfg backend.Config) (*backend.Output, error) {
	m, err := CompileModule(w, mainName, Config{Mode: cfg.Mode})
	if err != nil {
		return nil, err
	}
	return &backend.Output{Wasm: m.Encode()}, nil
}

// Config controls code generation.
type Config struct {
	// Mode selects primop placement (default ScheduleSmart).
	Mode analysis.Mode
}

// Function index space: host imports, then helpers, then program
// functions in unit order, then closure wrappers.
const (
	impPrintI64 = iota
	impPrintF64
	impPrintChar
	impFmod
	impF2I
	impTrap
	numImports
)

const (
	hlpAlloc = numImports + iota
	hlpArrayNew
	hlpDivI
	hlpRemI
	hlpLea
	funcBase // first program function index
)

const numHelpers = funcBase - numImports

// Trap codes passed to env.trap.
const (
	TrapDivZero = 1
	TrapRemZero = 2
	TrapBounds  = 3
	TrapNegSize = 4
	TrapOOM     = 6
)

// poisonAddr is the address $lea returns for an out-of-range index.
// Wrapped to i32 it is 0xFFFFFFFF, so an access of any width runs past the
// largest linear memory (4 GiB) and the interpreter traps.
const poisonAddr = -1

// Linear memory layout: a null guard cell, the return-spill area for
// results beyond the first, then the Thorin global cells, then the heap.
const (
	retSpillBase = 8
	maxResults   = 5 // 1 wasm result + 4 spill slots
	globalBase   = retSpillBase + 8*(maxResults-1)
)

// CompileModule lowers w into a decoded wasm module (the -emit=wat path
// wants the structured form; Compile encodes it). mainName selects the
// entry point, exported as "main".
func CompileModule(w *ir.World, mainName string, cfg Config) (*wasm.Module, error) {
	u, err := lower.NewUnit(w, cfg.Mode)
	if err != nil {
		return nil, backend.Errf(backend.Wasm, "", err)
	}
	g := &generator{
		u:          u,
		mod:        &wasm.Module{},
		wrapperIdx: map[*ir.Continuation]int{},
	}
	for _, c := range u.Funcs() {
		g.declareFunc(c)
	}
	for c := u.Next(); c != nil; c = u.Next() {
		if err := g.emitFunc(c); err != nil {
			return nil, backend.Errf(backend.Wasm, c.Name(), err)
		}
	}
	mainIdx, err := u.Main(mainName)
	if err != nil {
		return nil, backend.Errf(backend.Wasm, "", err)
	}
	mod, err := g.finish(mainIdx)
	if err != nil {
		return nil, backend.Errf(backend.Wasm, "", err)
	}
	if err := wasm.Validate(mod); err != nil {
		return nil, backend.Errf(backend.Wasm, "", fmt.Errorf("emitted module fails validation: %w", err))
	}
	return mod, nil
}

// wrapper is one closure-code target reachable through the funcref
// table. Its position in g.wrappers is its table index.
type wrapper struct {
	code *ir.Continuation
	envN int
}

type generator struct {
	u   *lower.Unit
	mod *wasm.Module

	bodies     []wasm.Func // program functions, aligned with unit indices
	wrappers   []wrapper
	wrapperIdx map[*ir.Continuation]int
}

// declareFunc queues c for emission and returns its wasm function index.
func (g *generator) declareFunc(c *ir.Continuation) int {
	idx := g.u.Declare(c)
	for len(g.bodies) <= idx {
		g.bodies = append(g.bodies, wasm.Func{})
	}
	return funcBase + idx
}

// wrapperIndex returns the funcref-table slot of code's closure wrapper,
// creating it (and queueing code itself) on first use.
func (g *generator) wrapperIndex(code *ir.Continuation, envN int) (int, error) {
	if ti, ok := g.wrapperIdx[code]; ok {
		if g.wrappers[ti].envN != envN {
			return 0, fmt.Errorf("closure code %s used with different environment sizes", code.Name())
		}
		return ti, nil
	}
	ti := len(g.wrappers)
	g.wrappers = append(g.wrappers, wrapper{code: code, envN: envN})
	g.wrapperIdx[code] = ti
	g.declareFunc(code)
	return ti, nil
}

// globalAddr registers an OpGlobal cell and returns its byte address.
func (g *generator) globalAddr(p *ir.PrimOp) (int64, error) {
	idx, err := g.u.GlobalIndex(p)
	if err != nil {
		return 0, err
	}
	return int64(globalBase + 8*idx), nil
}

// valTypeOf maps an IR type onto its wasm representation.
func valTypeOf(t ir.Type) wasm.ValType {
	if pt, ok := t.(*ir.PrimType); ok && pt.Tag.IsFloat() {
		return wasm.F64
	}
	return wasm.I64
}

// retTypes lists the value results of function c (the non-mem params of
// its return continuation).
func retTypes(c *ir.Continuation) ([]wasm.ValType, error) {
	rp := c.RetParam()
	if rp == nil {
		return nil, nil
	}
	ft, ok := rp.Type().(*ir.FnType)
	if !ok {
		return nil, fmt.Errorf("%s: ret param is not a continuation", c.Name())
	}
	var out []wasm.ValType
	for _, t := range ft.Params {
		if !ir.IsMemType(t) {
			out = append(out, valTypeOf(t))
		}
	}
	if len(out) > maxResults {
		return nil, fmt.Errorf("%s: %d return values exceed the wasm backend's limit of %d",
			c.Name(), len(out), maxResults)
	}
	return out, nil
}

// sigOf computes the wasm signature of function c: one wasm result at
// most; further results travel through the return-spill area.
func sigOf(c *ir.Continuation) (wasm.FuncType, error) {
	var t wasm.FuncType
	for _, p := range lower.ValParams(c, c.RetParam()) {
		t.Params = append(t.Params, valTypeOf(p.Type()))
	}
	rts, err := retTypes(c)
	if err != nil {
		return t, err
	}
	if len(rts) > 0 {
		t.Results = []wasm.ValType{rts[0]}
	}
	return t, nil
}

// finish assembles the module: types, imports, helpers, program
// functions, wrappers, table, memory, globals, and exports.
func (g *generator) finish(mainIdx int) (*wasm.Module, error) {
	m := g.mod

	// Imports, in the fixed index order the emitted code assumed.
	imp := func(name string, t wasm.FuncType) {
		m.Imports = append(m.Imports, wasm.Import{
			Module: "env", Name: name, TypeIdx: m.AddType(t),
		})
	}
	i64 := wasm.I64
	f64 := wasm.F64
	imp("print_i64", wasm.FuncType{Params: []wasm.ValType{i64}})
	imp("print_f64", wasm.FuncType{Params: []wasm.ValType{f64}})
	imp("print_char", wasm.FuncType{Params: []wasm.ValType{i64}})
	imp("fmod", wasm.FuncType{Params: []wasm.ValType{f64, f64}, Results: []wasm.ValType{f64}})
	imp("f2i", wasm.FuncType{Params: []wasm.ValType{f64}, Results: []wasm.ValType{i64}})
	imp("trap", wasm.FuncType{Params: []wasm.ValType{i64}})

	// Helpers, then program functions, then wrappers.
	m.Funcs = append(m.Funcs, helperFuncs(m)...)
	for i, c := range g.u.Funcs() {
		sig, err := sigOf(c)
		if err != nil {
			return nil, err
		}
		f := g.bodies[i]
		f.TypeIdx = m.AddType(sig)
		m.Funcs = append(m.Funcs, f)
	}
	wrapperBase := numImports + len(m.Funcs)
	var elems []int
	for _, w := range g.wrappers {
		f, err := g.wrapperFunc(w)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, f)
		elems = append(elems, wrapperBase)
		wrapperBase++
	}
	if len(elems) > 0 {
		m.HasTable = true
		m.TableMin = len(elems)
		m.Elems = []wasm.Elem{{Offset: 0, Funcs: elems}}
	}

	// Memory: globals area plus a first heap page; $alloc grows on demand.
	heapStart := globalBase + 8*len(g.u.Globals())
	m.HasMemory = true
	m.MemMin = (heapStart+wasm.PageSize-1)/wasm.PageSize + 1

	// Global 0 is the bump-allocator frontier.
	m.Globals = []wasm.Global{{
		Type: i64, Mut: true,
		Init: append(wasm.AppendSleb([]byte{wasm.OpI64Const}, int64(heapStart)), wasm.OpEnd),
	}}

	// Thorin global cells, initialized through one data segment.
	if n := len(g.u.Globals()); n > 0 {
		buf := make([]byte, 8*n)
		for i, gp := range g.u.Globals() {
			l := lower.GlobalInit(gp)
			bits := uint64(l.I)
			if valTypeOf(l.Type()) == f64 {
				bits = math.Float64bits(l.F)
			}
			binary.LittleEndian.PutUint64(buf[8*i:], bits)
		}
		m.Data = []wasm.Data{{Offset: globalBase, Bytes: buf}}
	}

	m.Exports = []wasm.Export{
		{Name: "main", Kind: wasm.ExtFunc, Idx: funcBase + mainIdx},
		{Name: "memory", Kind: wasm.ExtMem, Idx: 0},
	}
	return m, nil
}

// wrapperFunc builds the call_indirect adapter for one closure code
// target: (closure, args...) → load the environment from the closure
// record, then call the real function. Closure conversion appends the
// captured environment after the apparent parameters (the VM's closure
// call does the same), so the wrapper forwards its own args first and
// the env cells last.
func (g *generator) wrapperFunc(w wrapper) (wasm.Func, error) {
	ps := lower.ValParams(w.code, w.code.RetParam())
	if w.envN > len(ps) {
		return wasm.Func{}, fmt.Errorf("closure %s: environment larger than parameter list", w.code.Name())
	}
	rest, env := ps[:len(ps)-w.envN], ps[len(ps)-w.envN:]

	var sig wasm.FuncType
	sig.Params = append(sig.Params, wasm.I64)
	for _, p := range rest {
		sig.Params = append(sig.Params, valTypeOf(p.Type()))
	}
	rts, err := retTypes(w.code)
	if err != nil {
		return wasm.Func{}, err
	}
	if len(rts) > 0 {
		sig.Results = []wasm.ValType{rts[0]}
	}

	var b []byte
	for j := range rest {
		b = append(b, wasm.OpLocalGet)
		b = wasm.AppendUleb(b, uint64(1+j))
	}
	for i, p := range env {
		b = append(b, wasm.OpLocalGet, 0, wasm.OpI32WrapI64)
		b = appendLoad(b, valTypeOf(p.Type()), uint64(8+8*i))
	}
	b = append(b, wasm.OpCall)
	idx, ok := g.u.FuncIndex(w.code)
	if !ok {
		return wasm.Func{}, fmt.Errorf("closure code %s never declared", w.code.Name())
	}
	b = wasm.AppendUleb(b, uint64(funcBase+idx))
	b = append(b, wasm.OpEnd)
	return wasm.Func{TypeIdx: g.mod.AddType(sig), Code: b}, nil
}

func appendLoad(b []byte, t wasm.ValType, offset uint64) []byte {
	if t == wasm.F64 {
		b = append(b, wasm.OpF64Load)
	} else {
		b = append(b, wasm.OpI64Load)
	}
	b = append(b, 3) // 8-byte alignment hint
	return wasm.AppendUleb(b, offset)
}

func appendStore(b []byte, t wasm.ValType, offset uint64) []byte {
	if t == wasm.F64 {
		b = append(b, wasm.OpF64Store)
	} else {
		b = append(b, wasm.OpI64Store)
	}
	b = append(b, 3)
	return wasm.AppendUleb(b, offset)
}

// helperFuncs builds the runtime helpers as defined wasm functions.
// They are hand-assembled; indices match the hlp* constants.
func helperFuncs(m *wasm.Module) []wasm.Func {
	i64 := wasm.I64
	sig11 := m.AddType(wasm.FuncType{Params: []wasm.ValType{i64}, Results: []wasm.ValType{i64}})
	sig21 := m.AddType(wasm.FuncType{Params: []wasm.ValType{i64, i64}, Results: []wasm.ValType{i64}})

	sleb := wasm.AppendSleb
	uleb := wasm.AppendUleb

	// $alloc(size) -> addr: bump, growing memory as needed.
	var a []byte
	a = append(a, wasm.OpGlobalGet, 0, wasm.OpLocalSet, 1) // old = hp
	a = append(a, wasm.OpLocalGet, 1, wasm.OpLocalGet, 0)
	a = sleb(append(a, wasm.OpI64Const), 7)
	a = append(a, wasm.OpI64Add)
	a = sleb(append(a, wasm.OpI64Const), -8)
	a = append(a, wasm.OpI64And, wasm.OpI64Add, wasm.OpLocalSet, 2) // new = old + align8(size)
	a = append(a, wasm.OpLocalGet, 2, wasm.OpGlobalSet, 0)
	// if new > pages*64Ki: grow
	a = append(a, wasm.OpLocalGet, 2)
	a = append(a, wasm.OpMemSize, 0, wasm.OpI64ExtendI32U)
	a = sleb(append(a, wasm.OpI64Const), 16)
	a = append(a, wasm.OpI64Shl, wasm.OpI64GtS)
	a = append(a, wasm.OpIf, wasm.BlockEmpty)
	a = append(a, wasm.OpLocalGet, 2)
	a = append(a, wasm.OpMemSize, 0, wasm.OpI64ExtendI32U)
	a = sleb(append(a, wasm.OpI64Const), 16)
	a = append(a, wasm.OpI64Shl, wasm.OpI64Sub)
	a = sleb(append(a, wasm.OpI64Const), 65535)
	a = append(a, wasm.OpI64Add)
	a = sleb(append(a, wasm.OpI64Const), 16)
	a = append(a, wasm.OpI64ShrU, wasm.OpI32WrapI64)
	a = append(a, wasm.OpMemGrow, 0)
	a = sleb(append(a, wasm.OpI32Const), -1)
	a = append(a, wasm.OpI32Eq)
	a = append(a, wasm.OpIf, wasm.BlockEmpty)
	a = sleb(append(a, wasm.OpI64Const), TrapOOM)
	a = uleb(append(a, wasm.OpCall), impTrap)
	a = append(a, wasm.OpUnreachable, wasm.OpEnd)
	a = append(a, wasm.OpEnd)
	a = append(a, wasm.OpLocalGet, 1, wasm.OpEnd)
	alloc := wasm.Func{TypeIdx: sig11, Locals: []wasm.ValType{i64, i64}, Code: a}

	// $array_new(n) -> addr: [len][zeroed elems]. One unsigned compare
	// catches a negative size and one above vm.MaxArrayLen, so n*8+8
	// cannot wrap; the trap arm tells the two apart.
	var an []byte
	an = append(an, wasm.OpLocalGet, 0)
	an = sleb(append(an, wasm.OpI64Const), vm.MaxArrayLen)
	an = append(an, wasm.OpI64GtU)
	an = append(an, wasm.OpIf, wasm.BlockEmpty)
	an = sleb(append(an, wasm.OpI64Const), TrapNegSize)
	an = sleb(append(an, wasm.OpI64Const), TrapOOM)
	an = append(an, wasm.OpLocalGet, 0)
	an = sleb(append(an, wasm.OpI64Const), 0)
	an = append(an, wasm.OpI64LtS, wasm.OpSelect)
	an = uleb(append(an, wasm.OpCall), impTrap)
	an = append(an, wasm.OpUnreachable, wasm.OpEnd)
	an = append(an, wasm.OpLocalGet, 0)
	an = sleb(append(an, wasm.OpI64Const), 3)
	an = append(an, wasm.OpI64Shl)
	an = sleb(append(an, wasm.OpI64Const), 8)
	an = append(an, wasm.OpI64Add)
	an = uleb(append(an, wasm.OpCall), hlpAlloc)
	an = append(an, wasm.OpLocalSet, 1)
	an = append(an, wasm.OpLocalGet, 1, wasm.OpI32WrapI64, wasm.OpLocalGet, 0)
	an = appendStore(an, i64, 0)
	an = append(an, wasm.OpLocalGet, 1, wasm.OpEnd)
	arrayNew := wasm.Func{TypeIdx: sig11, Locals: []wasm.ValType{i64}, Code: an}

	// $divi(a, b): trap on b == 0; wrap MinInt64 / -1 like the VM.
	var dv []byte
	dv = append(dv, wasm.OpLocalGet, 1, wasm.OpI64Eqz)
	dv = append(dv, wasm.OpIf, wasm.BlockEmpty)
	dv = sleb(append(dv, wasm.OpI64Const), TrapDivZero)
	dv = uleb(append(dv, wasm.OpCall), impTrap)
	dv = append(dv, wasm.OpUnreachable, wasm.OpEnd)
	dv = append(dv, wasm.OpLocalGet, 1)
	dv = sleb(append(dv, wasm.OpI64Const), -1)
	dv = append(dv, wasm.OpI64Eq)
	dv = append(dv, wasm.OpIf, byte(i64))
	dv = sleb(append(dv, wasm.OpI64Const), 0)
	dv = append(dv, wasm.OpLocalGet, 0, wasm.OpI64Sub)
	dv = append(dv, wasm.OpElse)
	dv = append(dv, wasm.OpLocalGet, 0, wasm.OpLocalGet, 1, wasm.OpI64DivS)
	dv = append(dv, wasm.OpEnd, wasm.OpEnd)
	divi := wasm.Func{TypeIdx: sig21, Code: dv}

	// $remi(a, b): trap on b == 0; a % -1 is 0 like the VM.
	var rm []byte
	rm = append(rm, wasm.OpLocalGet, 1, wasm.OpI64Eqz)
	rm = append(rm, wasm.OpIf, wasm.BlockEmpty)
	rm = sleb(append(rm, wasm.OpI64Const), TrapRemZero)
	rm = uleb(append(rm, wasm.OpCall), impTrap)
	rm = append(rm, wasm.OpUnreachable, wasm.OpEnd)
	rm = append(rm, wasm.OpLocalGet, 1)
	rm = sleb(append(rm, wasm.OpI64Const), -1)
	rm = append(rm, wasm.OpI64Eq)
	rm = append(rm, wasm.OpIf, byte(i64))
	rm = sleb(append(rm, wasm.OpI64Const), 0)
	rm = append(rm, wasm.OpElse)
	rm = append(rm, wasm.OpLocalGet, 0, wasm.OpLocalGet, 1, wasm.OpI64RemS)
	rm = append(rm, wasm.OpEnd, wasm.OpEnd)
	remi := wasm.Func{TypeIdx: sig21, Code: rm}

	// $lea(arr, idx) -> element address arr+8+8*idx when idx is in
	// [0, len) as an unsigned compare (negative indices are huge), else
	// poisonAddr.
	var le []byte
	le = append(le, wasm.OpLocalGet, 0, wasm.OpLocalGet, 1)
	le = sleb(append(le, wasm.OpI64Const), 3)
	le = append(le, wasm.OpI64Shl, wasm.OpI64Add)
	le = sleb(append(le, wasm.OpI64Const), 8)
	le = append(le, wasm.OpI64Add)
	le = sleb(append(le, wasm.OpI64Const), poisonAddr)
	le = append(le, wasm.OpLocalGet, 1, wasm.OpLocalGet, 0, wasm.OpI32WrapI64)
	le = appendLoad(le, i64, 0)
	le = append(le, wasm.OpI64LtU, wasm.OpSelect, wasm.OpEnd)
	lea := wasm.Func{TypeIdx: sig21, Code: le}

	return []wasm.Func{alloc, arrayNew, divi, remi, lea}
}
