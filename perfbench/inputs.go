package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/link"
	"thorin/internal/pm"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// schedule is the canonical name of the primop schedule every compile uses
// (analysis.ScheduleSmart, the thorinc and thorind default).
const schedule = "smart"

// execBudget is the step and fuel bound of every execution, the default of
// driver.ExecSteps and driver.ExecWasm.
const execBudget = 4_000_000_000

// o2 is the -O2 pipeline spec, resolved through the request API so it is
// exactly what thorinc and thorind compile with at -O2.
var o2 = func() string {
	two := 2
	spec, err := (&driver.Request{Opt: &two}).ResolvedSpec()
	if err != nil {
		panic(err)
	}
	return spec
}()

var targets = []backend.Target{backend.VM, backend.Wasm}

// input is one source program with its oracle: main's result at N according
// to the impala reference interpreter, never the compiler under test.
type input struct {
	Name   string `json:"name"`
	N      int64  `json:"n"`
	src    string
	tokens int
	want   int64
	trap   bool // the interpreter traps at N, so every engine must trap
}

func newInput(name, src string, n int64) (*input, error) {
	toks, err := impala.Lex(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog, err := impala.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := impala.Check(prog); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	in, err := impala.NewInterp(prog, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	v, err := in.Run(n)
	if errors.Is(err, impala.ErrFuel) {
		return nil, fmt.Errorf("%s: reference interpreter out of fuel at n=%d", name, n)
	}
	return &input{Name: name, N: n, src: src, tokens: len(toks), want: v.I, trap: err != nil}, nil
}

// check compares one execution's outcome with the oracle.
func (in *input) check(got int64, err error) error {
	switch {
	case in.trap && err == nil:
		return fmt.Errorf("%s: returned %d where the interpreter traps", in.Name, got)
	case in.trap:
		return nil
	case err != nil:
		return fmt.Errorf("%s: %w", in.Name, err)
	case got != in.want:
		return fmt.Errorf("%s: returned %d, interpreter says %d", in.Name, got, in.want)
	}
	return nil
}

// oracleN is the argument each suite program is checked at when it is a
// compile input: small, so checking stays a minor part of setup.
var oracleN = map[string]int64{
	"fib": 12, "mapreduce": 300, "filter": 300, "compose": 200, "mandelbrot": 8,
	"nbody": 20, "spectralnorm": 8, "qsort": 100, "matmul": 8, "nqueens": 5,
}

// suiteInputs returns both variants of every suite program at nOf(name).
func suiteInputs(nOf func(name string) int64) ([]*input, error) {
	var out []*input
	for _, p := range bench.Suite {
		for _, v := range []struct{ name, src string }{{"functional", p.Functional}, {"imperative", p.Imperative}} {
			in, err := newInput(p.Name+"/"+v.name, v.src, nOf(p.Name))
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// fileInputs loads every file matching pattern under root, checked at n.
func fileInputs(root, pattern string, n int64) ([]*input, error) {
	files, err := filepath.Glob(filepath.Join(root, pattern))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no inputs match %s under %s", pattern, root)
	}
	sort.Strings(files)
	var out []*input
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		in, err := newInput(filepath.Base(f), string(src), n)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// fuzzInputs draws count programs from each fuzzgen generator. The draw
// seeds are fixed, not taken from the run seed, so the input set and every
// exact count are the same on every run.
func fuzzInputs(count int) ([]*input, error) {
	var out []*input
	for i := 0; i < count; i++ {
		seed := int64(1000 + i)
		for _, g := range []struct {
			name string
			gen  func(int64) string
		}{{"fuzz", fuzzgen.Program}, {"fuzzmem", fuzzgen.MemoryProgram}} {
			in, err := newInput(fmt.Sprintf("%s-%d", g.name, seed), g.gen(seed), 7)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// compileArtifact compiles src at -O2 for target and encodes the artifact.
// Untraced it calls driver.CompileSpec; traced it makes the same layer calls
// as the driver's compile path, in the same order, each under a span, and
// reads the layer counters from what those calls return. Both paths produce
// identical bytes.
func compileArtifact(tr *tracer, src string, tokens int, target backend.Target, jobs int) ([]byte, error) {
	if tr == nil {
		res, err := driver.CompileSpec(src, o2, analysis.ScheduleSmart, driver.Config{Jobs: jobs, Target: target})
		if err != nil {
			return nil, err
		}
		return driver.NewArtifact(res, res.Spec, schedule).Encode()
	}
	s := tr.begin("impala.parse")
	prog, err := impala.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("impala.check")
	err = impala.Check(prog)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("impala.emit")
	w, err := impala.EmitProgram(prog)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	emitted := w.NumPrimOps() + w.NumContinuations()
	s = tr.begin("pm.run")
	pl, err := pm.Parse(o2)
	var rep *pm.Report
	if err == nil {
		ctx := pm.NewContext(w)
		ctx.Jobs = jobs
		ctx.Incremental = true
		rep, err = pl.Run(ctx)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("ir.verify")
	err = ir.Verify(w)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	t, err := backend.ParseTarget(string(target))
	if err != nil {
		return nil, err
	}
	be, err := backend.Lookup(t)
	if err != nil {
		return nil, err
	}
	s = tr.begin("backend." + string(t))
	out, err := be.Compile(w, "main", backend.Config{Mode: analysis.ScheduleSmart})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("driver.measure_ir")
	irs := driver.MeasureIR(w)
	tr.end(s)
	res := &driver.Result{World: w, Target: t, Program: out.VM, Wasm: out.Wasm, IRStats: irs, Report: rep, Spec: o2}
	s = tr.begin("driver.encode")
	data, err := driver.NewArtifact(res, res.Spec, schedule).Encode()
	tr.end(s)
	if err != nil {
		return nil, err
	}

	c := &tr.c
	c.compiles++
	c.tokens += tokens
	c.nodesEmitted += emitted
	c.nodesFinal += irs.Continuations + irs.PrimOps
	st := w.InternStats()
	c.internReq += st.Requested
	c.internHits += st.ConsHits
	c.passRuns += len(rep.Runs)
	c.passSkips += rep.Skips()
	c.memoHits += rep.MemoHits()
	c.rewrites += rep.Rewrites()
	c.cacheHits += rep.Cache.Hits
	c.cacheMisses += rep.Cache.Misses
	c.stale += rep.Cache.Stale
	if c.passMs == nil {
		c.passMs = map[string][]float64{}
	}
	for _, p := range rep.PassTotals() {
		c.passMs[p.Name] = append(c.passMs[p.Name], ms(p.Time))
	}
	if t == backend.VM {
		c.vmPayload = append(c.vmPayload, len(data))
	} else {
		c.wasmPayload = append(c.wasmPayload, len(data))
	}
	return data, nil
}

// moduleCompiler replays daemon module requests in process the way thorind
// serves them: each module is compiled once and cached as its encoded module
// artifact, every link input is decoded from that encoding, and the linked
// world is finished and encoded.
type moduleCompiler struct {
	cache map[string][]byte // module source -> encoded module artifact
	cfg   driver.Config
}

func newModuleCompiler(target backend.Target, jobs int) *moduleCompiler {
	return &moduleCompiler{cache: map[string][]byte{}, cfg: driver.Config{Jobs: jobs, Target: target}}
}

func (mc *moduleCompiler) compile(tr *tracer, sources []string) ([]byte, error) {
	units, err := driver.ParseModules(sources)
	if err != nil {
		return nil, err
	}
	mods := make([]*link.Module, len(units))
	for i, u := range units {
		data, ok := mc.cache[u.Source]
		if !ok {
			s := tr.begin("driver.module_compile")
			m, err := driver.CompileModuleUnit(u, o2, mc.cfg)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if data, err = driver.NewModuleArtifact(m, driver.ModuleSpec(o2)).Encode(); err != nil {
				return nil, err
			}
			mc.cache[u.Source] = data
		}
		art, err := driver.DecodeModuleArtifact(data)
		if err != nil {
			return nil, err
		}
		if mods[i], err = art.Module(); err != nil {
			return nil, err
		}
	}
	s := tr.begin("driver.link")
	res, err := driver.LinkCompiled(mods, o2, link.Trampoline, analysis.ScheduleSmart, mc.cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("driver.encode")
	data, err := driver.NewArtifact(res, res.Spec, schedule).Encode()
	tr.end(s)
	return data, err
}

// execution is one checked run of an artifact: the exact VM instruction
// count or wasm fuel it spent.
type execution struct {
	target backend.Target
	instrs int64
	fuel   int64
}

// execArtifact decodes an encoded artifact, runs main(in.N) on its target's
// engine and checks the result against the oracle.
func execArtifact(tr *tracer, data []byte, in *input) (execution, error) {
	s := tr.begin("driver.decode")
	art, err := driver.DecodeArtifact(data)
	tr.end(s)
	if err != nil {
		return execution{}, err
	}
	ex := execution{target: backend.Target(art.Target)}
	var got int64
	if ex.target == backend.VM {
		var ctr vm.Counters
		got, ctr, err = runVM(tr, art.Program, in.N)
		ex.instrs = ctr.Instructions
	} else {
		got, ex.fuel, err = runWasm(tr, art.Wasm, in.N)
	}
	return ex, in.check(got, err)
}

// runVM executes prog's main(n) through driver.ExecSteps.
func runVM(tr *tracer, prog *vm.Program, n int64) (int64, vm.Counters, error) {
	var a0 uint64
	if tr != nil {
		a0 = heapAllocs()
	}
	s := tr.begin("vm.run")
	got, ctr, err := driver.ExecSteps(prog, nil, execBudget, n)
	tr.end(s)
	if tr != nil {
		c := &tr.c
		c.vmAllocBytes += heapAllocs() - a0
		c.vmRuns++
		c.vmInstrs += ctr.Instructions
		c.vmCalls += ctr.DirectCalls + ctr.IndirectCalls + ctr.TailCalls
		c.vmClosures += ctr.ClosureAllocs
		c.vmHeapWords += ctr.HeapWords
	}
	return got, ctr, err
}

// runWasm executes a wasm module's main(n) with the calls driver.ExecWasm
// makes, one span each, and returns the fuel spent.
func runWasm(tr *tracer, mod []byte, n int64) (int64, int64, error) {
	s := tr.begin("wasm.decode")
	m, err := wasm.Decode(mod)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin("wasm.instantiate")
	inst, err := wasm.NewInstance(m, wasmbackend.Host(nil))
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	inst.Fuel = execBudget
	s = tr.begin("wasm.invoke")
	res, err := inst.Invoke("main", uint64(n))
	tr.end(s)
	fuel := execBudget - inst.Fuel
	if tr != nil {
		tr.c.wasmRuns++
		tr.c.wasmFuel += fuel
	}
	if err != nil {
		return 0, fuel, err
	}
	if len(res) == 0 {
		return 0, fuel, nil
	}
	return int64(res[0]), fuel, nil
}
