// Command thorinc is the compiler driver: it compiles an Impala source file
// through the Thorin graph-IR pipeline (or the classical SSA baseline) and
// can dump the IR, disassemble the bytecode, or run the program.
//
// Usage:
//
//	thorinc [flags] file.imp [more.imp ...] [args...]
//
// Passing several .imp files (each opening with `module NAME;`) selects
// separate compilation: every module is compiled into its own world and
// the set is linked (-link picks trampoline or mangle resolution).
//
// Examples:
//
//	thorinc -run examples/fib.imp 30
//	thorinc -run a.imp b.imp c.imp 10      # compile modules separately, link, run
//	thorinc -link=mangle -run a.imp b.imp 10  # specialize across module boundaries
//	thorinc -emit=thorin -O 0 prog.imp     # dump the unoptimized graph IR
//	thorinc -emit=thorin prog.imp          # dump the optimized graph IR
//	thorinc -emit=ssa prog.imp             # dump the baseline SSA module
//	thorinc -emit=bytecode prog.imp        # disassemble the bytecode
//	thorinc -target=wasm -run prog.imp 10  # compile to wasm, run on the interpreter
//	thorinc -target=wasm -emit=wat prog.imp  # print the wasm module as WAT
//	thorinc -pipeline=ssa -run prog.imp 10 # execute via the baseline
//	thorinc -passes="cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure" \
//	    -emit=pass-report prog.imp         # custom pipeline + per-pass table
//	thorinc -verify-each prog.imp          # ir.Verify after every pass
//	thorinc -incremental=off prog.imp      # disable journal-driven pass skipping
//	thorinc -budget "nodes=500000" -deadline 30s prog.imp  # bounded compile
//	thorinc -on-failure=degrade -run prog.imp 10       # survive a buggy pass
//	thorinc -replay .thorin-crash/crash-ab12cd34ef56   # re-run a crash bundle
//	thorinc -cpuprofile cpu.pprof prog.imp             # profile the compile
//	thorinc -memprofile mem.pprof prog.imp             # heap profile at exit
//	thorinc -server localhost:7474 -run prog.imp 10    # compile on a thorind daemon
//
// Exit status: 0 on success, 1 on errors, 2 on usage mistakes, and 3 when
// the compile succeeded only by graceful degradation (a pass was stripped;
// see -on-failure=degrade). Pass -allow-degraded to treat degraded
// compiles as success.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/ir"
	"thorin/internal/server"
	"thorin/internal/vm"
	"thorin/internal/wasm"
)

// exitDegraded is the exit status of a compile that finished only via
// graceful degradation; distinct from 1 (error) so scripts and CI can
// detect a silently-weaker build. -allow-degraded opts out.
const exitDegraded = 3

// flags are thorinc's command-line options.
type flags struct {
	emit, target, pipeline, passes, incremental, link, schedule string
	budget, onFailure, crashDir, replay, server                 string
	cpuProfile, memProfile                                      string
	opt, jobs, retries                                          int
	verifyEach, run, stats, allowDegraded                       bool
	retryBudget, deadline                                       time.Duration
}

// newFlags registers thorinc's options on fs.
func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.emit, "emit", "", "dump: thorin | ssa | bytecode | wat | dot | cfg | pass-report | pass-report-json")
	fs.StringVar(&f.target, "target", "vm", "code generation target: vm (bytecode) | wasm (WebAssembly module)")
	fs.StringVar(&f.pipeline, "pipeline", "thorin", "pipeline: thorin | ssa")
	fs.IntVar(&f.opt, "O", 2, "optimization level for the thorin pipeline: 0, 1 (no mangling), 2")
	fs.StringVar(&f.passes, "passes", "", "explicit pass-pipeline spec, e.g. \"cleanup,pe,fix(cff,contify,mem2reg,inline-once),cleanup,closure\" (overrides -O)")
	fs.BoolVar(&f.verifyEach, "verify-each", false, "run ir.Verify after every pass and fail naming the offending pass")
	fs.IntVar(&f.jobs, "jobs", runtime.GOMAXPROCS(0), "worker count for the parallel analysis phase of scope-level passes (output is identical at every value)")
	fs.StringVar(&f.incremental, "incremental", "on", "journal-driven incremental re-running: on | off (output is identical either way; off re-runs every pass)")
	fs.StringVar(&f.link, "link", "trampoline", "cross-module resolution for multi-module compiles: trampoline (forwarding stubs) | mangle (whole-program specialization across module boundaries)")
	fs.BoolVar(&f.run, "run", false, "execute main with the trailing integer arguments")
	fs.BoolVar(&f.stats, "stats", false, "print compilation and execution statistics")
	fs.StringVar(&f.schedule, "schedule", "smart", "primop schedule: early | late | smart")
	fs.StringVar(&f.budget, "budget", "", "compilation budget, e.g. \"iters=8,nodes=200000\" (either key or both)")
	fs.StringVar(&f.onFailure, "on-failure", "fail", "pass-failure policy: fail (abort with a crash bundle) | degrade (strip the faulting pass and finish unoptimized)")
	fs.StringVar(&f.crashDir, "crash-dir", ".thorin-crash", "directory for crash reproduction bundles (empty disables)")
	fs.StringVar(&f.replay, "replay", "", "re-run the compilation recorded in a crash bundle directory and exit")
	fs.StringVar(&f.server, "server", "", "compile on a thorind daemon at this address instead of in-process (host:port or http://host:port)")
	fs.IntVar(&f.retries, "retries", 3, "with -server: how many times to retry a shed (429), draining (503) or unreachable daemon, under capped exponential backoff")
	fs.DurationVar(&f.retryBudget, "retry-budget", 0, "with -server: total wall-clock bound across all retry attempts and backoff sleeps (0 = no bound)")
	fs.DurationVar(&f.deadline, "deadline", 0, "compile deadline; with -server the daemon enforces it, including queue time (0 = none)")
	fs.BoolVar(&f.allowDegraded, "allow-degraded", false, "exit 0 instead of 3 when the compile finished via graceful degradation")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	return f
}

// request is the compile request the flags describe, still without its
// sources. thorinc compiles exactly this request, in process or on a
// daemon, and driver.Request.Resolve interprets it in both cases.
func (f *flags) request() (*driver.Request, error) {
	if f.verifyEach && f.server != "" {
		// A daemon request has no verify-each field; the daemon would
		// compile without it.
		return nil, fmt.Errorf("-verify-each is not available with -server (the daemon runs its own pipeline)")
	}
	req := &driver.Request{
		Link:       f.link,
		Spec:       f.passes,
		Opt:        &f.opt,
		Schedule:   f.schedule,
		Target:     f.target,
		Jobs:       f.jobs,
		OnFailure:  f.onFailure,
		Budget:     f.budget,
		DeadlineMs: f.deadline.Milliseconds(),
	}
	switch f.incremental {
	case "on":
	case "off":
		req.DisableIncremental = true
	default:
		return nil, fmt.Errorf("bad -incremental %q (want on or off)", f.incremental)
	}
	return req, nil
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()

	startProfiles(f.cpuProfile, f.memProfile)
	defer stopProfiles()

	if f.replay != "" {
		res, err := driver.Replay(f.replay)
		if err != nil {
			fatal(fmt.Errorf("replay: %w", err))
		}
		fmt.Fprintf(os.Stderr, "thorinc: replay of %s succeeded — the recorded failure no longer reproduces\n", f.replay)
		if f.run {
			runProgram(res.Target, res.Program, res.Wasm, programArgs(flag.Args()), f.emit, true, f.stats)
		}
		return
	}

	// Leading positionals naming source files are inputs (several .imp
	// files form a multi-module compile); the rest are integer program
	// arguments for -run.
	rest := flag.Args()
	var srcFiles []string
	for len(rest) > 0 && (strings.HasSuffix(rest[0], ".imp") || strings.HasSuffix(rest[0], ".thorin")) {
		srcFiles = append(srcFiles, rest[0])
		rest = rest[1:]
	}
	if len(srcFiles) == 0 {
		fmt.Fprintln(os.Stderr, "usage: thorinc [flags] file.imp [more.imp ...] [args...]")
		flag.Usage()
		stopProfiles()
		os.Exit(2)
	}
	sources := make([]string, len(srcFiles))
	for i, file := range srcFiles {
		b, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		sources[i] = string(b)
	}
	src := sources[0]

	args := programArgs(rest)

	// Several source files — or a single one opening with a module
	// declaration — select the separate-compilation path: each module is
	// compiled into its own world and the set is linked (see internal/link).
	moduleCompile := len(srcFiles) > 1 || isModuleSource(src)
	req, err := f.request()
	if err != nil {
		fatal(err)
	}
	if moduleCompile {
		req.Sources = sources
	} else {
		req.Source = src
	}
	rr, err := req.Resolve(f.crashDir)
	if err != nil {
		fatal(err)
	}
	rr.Config.VerifyEach = f.verifyEach
	target := rr.Config.Target

	switch f.emit {
	case "bytecode":
		if target != backend.VM {
			fatal(fmt.Errorf("-emit=bytecode needs -target=vm (the %s target has no bytecode)", target))
		}
	case "wat":
		if target != backend.Wasm {
			fatal(fmt.Errorf("-emit=wat needs -target=wasm"))
		}
	}
	if f.pipeline == "ssa" && target != backend.VM {
		fatal(fmt.Errorf("-pipeline=ssa only targets the vm"))
	}
	if moduleCompile {
		for _, file := range srcFiles {
			if strings.HasSuffix(file, ".thorin") {
				fatal(fmt.Errorf("textual IR (%s) cannot join a multi-module compile", file))
			}
		}
		if f.pipeline == "ssa" {
			fatal(fmt.Errorf("-pipeline=ssa does not support multi-module compiles"))
		}
	}
	ctx, cancel := rr.WithDeadline(context.Background())
	defer cancel()

	// Files ending in .thorin contain textual IR (the Print format) and
	// bypass the frontend.
	if strings.HasSuffix(srcFiles[0], ".thorin") {
		if f.server != "" {
			fatal(fmt.Errorf("-server only compiles Impala sources (the daemon's frontend is the cache key's hash domain), not textual IR"))
		}
		w, err := ir.ParseWorld(src)
		if err != nil {
			fatal(err)
		}
		cfg := rr.Config
		cfg.Ctx = ctx
		res, err := driver.CompileWorld(w, rr.Spec, rr.Mode, cfg)
		if err != nil {
			fatal(err)
		}
		emitWorld(res, f.emit)
		runProgram(target, res.Program, res.Wasm, args, f.emit, f.run, f.stats)
		return
	}

	var prog *vm.Program
	var wasmMod []byte
	degraded := false
	switch f.pipeline {
	case "ssa":
		p, mod, err := driver.CompileSSA(src)
		if err != nil {
			fatal(err)
		}
		prog = p
		if f.emit == "ssa" {
			for _, fn := range mod.Funcs {
				fmt.Print(fn.String())
			}
		}
		if f.stats {
			phis, instrs := 0, 0
			for _, fn := range mod.Funcs {
				phis += fn.NumPhis()
				instrs += fn.NumInstrs()
			}
			fmt.Fprintf(os.Stderr, "ssa: %d functions, %d instructions, %d φs\n",
				len(mod.Funcs), instrs, phis)
		}
	default:
		if f.server != "" {
			switch f.emit {
			// bytecode and wat dumps render the artifact payload itself, so
			// they work on remote compiles; IR dumps need the World, which
			// never leaves the daemon.
			case "", "bytecode", "wat":
			default:
				fatal(fmt.Errorf("-emit=%s is not available with -server (the daemon ships compiled artifacts, not IR)", f.emit))
			}
			c := &server.Client{
				Addr:        f.server,
				Retries:     f.retries,
				RetryBudget: f.retryBudget,
			}
			resp, art, err := c.Compile(req)
			if err != nil {
				fatal(err)
			}
			if art.Degraded {
				degraded = true
				fmt.Fprintf(os.Stderr, "thorinc: warning: remote pass failure in %v; daemon finished with degraded pipeline %q\n",
					art.FailedPasses, art.Spec)
			}
			prog = art.Program
			wasmMod = art.Wasm
			if f.stats {
				m := art.IRStats
				fmt.Fprintf(os.Stderr,
					"thorin (remote %s): cache %s, key %s…, %d continuations, %d primops, %d higher-order\n",
					f.server, resp.Cache, resp.Key[:12], m.Continuations, m.PrimOps, m.HigherOrder)
			}
			break
		}
		res, err := driver.Compile(ctx, rr)
		if err != nil {
			fatal(err)
		}
		if res.Degraded {
			degraded = true
			fmt.Fprintf(os.Stderr, "thorinc: warning: pass failure in %v; finished with degraded pipeline %q", res.FailedPasses, res.Spec)
			if res.CrashBundle != "" {
				fmt.Fprintf(os.Stderr, " (crash bundle: %s)", res.CrashBundle)
			}
			fmt.Fprintln(os.Stderr)
		}
		emitWorld(res, f.emit)
		prog = res.Program
		wasmMod = res.Wasm
		if f.stats {
			m, st := res.IRStats, res.Stats
			fmt.Fprintf(os.Stderr,
				"thorin: %d continuations, %d primops, %d higher-order; cff-spec=%d m2r-slots=%d m2r-φparams=%d closures=%d\n",
				m.Continuations, m.PrimOps, m.HigherOrder,
				st.CFF.Specialized, st.Mem2Reg.PromotedSlots, st.Mem2Reg.PhiParams,
				st.Closure.Closures)
			fmt.Fprintf(os.Stderr,
				"thorin: m2r-skipped: escaped=%d interleaved=%d unpromotable-type=%d; dead-stores=%d\n",
				st.Mem2Reg.SkippedEscaped, st.Mem2Reg.SkippedInterleaved,
				st.Mem2Reg.SkippedUnpromotableType, st.Cleanup.DeadStores)
		}
	}

	runProgram(target, prog, wasmMod, args, f.emit, f.run, f.stats)

	// A degraded compile produced a valid but weaker-than-requested
	// program; all output above still happened, and the distinct exit
	// status lets scripts and CI detect it. -allow-degraded opts out.
	if degraded && !f.allowDegraded {
		fmt.Fprintln(os.Stderr, "thorinc: exit 3: compile finished via graceful degradation (-allow-degraded accepts it)")
		stopProfiles()
		os.Exit(exitDegraded)
	}
}

// isModuleSource reports whether a source opens with a module declaration
// (module is a keyword, so no other program can start with it).
func isModuleSource(src string) bool {
	f := strings.Fields(src)
	return len(f) > 0 && f[0] == "module"
}

// emitWorld prints the requested dumps of a compiled world: the
// pass-manager report (for a multi-module compile it covers the post-link
// pipeline only), the optimized IR, or per-function scope and CFG graphs.
func emitWorld(res *driver.Result, emit string) {
	st := res.Stats
	switch emit {
	case "pass-report":
		res.Report.WriteText(os.Stdout)
		// The mem2reg rewrites column counts promotions; break the slots it
		// could NOT promote down by reason, and show cleanup's dead-store
		// count next to it.
		fmt.Fprintf(os.Stdout,
			"mem2reg skips: escaped=%d interleaved=%d unpromotable-type=%d\n",
			st.Mem2Reg.SkippedEscaped, st.Mem2Reg.SkippedInterleaved,
			st.Mem2Reg.SkippedUnpromotableType)
		if st.Cleanup.DeadStores > 0 {
			fmt.Fprintf(os.Stdout, "dead stores removed: %d\n", st.Cleanup.DeadStores)
		}
	case "pass-report-json":
		if err := res.Report.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case "thorin":
		ir.Print(os.Stdout, res.World)
	case "dot", "cfg":
		for _, c := range res.World.Externs() {
			if c.IsIntrinsic() || !c.HasBody() {
				continue
			}
			s := analysis.NewScope(c)
			if emit == "dot" {
				analysis.WriteScopeDot(os.Stdout, s)
			} else {
				analysis.WriteCFGDot(os.Stdout, s)
			}
		}
	}
}

// runProgram handles the payload dump and execution stages shared by the
// frontend, textual-IR and remote paths. Exactly one of prog/mod is set,
// matching the target.
func runProgram(target backend.Target, prog *vm.Program, mod []byte, args []int64, emit string, run, stats bool) {
	switch emit {
	case "bytecode":
		vm.Disassemble(os.Stdout, prog)
	case "wat":
		m, err := wasm.Decode(mod)
		if err != nil {
			fatal(err)
		}
		fmt.Print(m.Wat())
	}
	if !run {
		return
	}
	if target == backend.Wasm {
		res, err := driver.ExecWasm(mod, os.Stdout, 0, args...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result: %d\n", res)
		return
	}
	m := vm.New(prog, os.Stdout)
	vals := make([]vm.Value, len(args))
	for i, a := range args {
		vals[i] = vm.Value{I: a}
	}
	res, err := m.Run(vals...)
	if err != nil {
		fatal(err)
	}
	for _, v := range res {
		fmt.Printf("result: %d\n", v.I)
	}
	if stats {
		c := m.Counters
		fmt.Fprintf(os.Stderr,
			"vm: %d instructions, %d direct calls, %d indirect calls, %d closures allocated, %d loads, %d stores\n",
			c.Instructions, c.DirectCalls, c.IndirectCalls, c.ClosureAllocs, c.Loads, c.Stores)
	}
}

// programArgs parses the integer arguments passed to main by -run.
func programArgs(rest []string) []int64 {
	var args []int64
	for _, a := range rest {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			// flag.Parse stops at the first positional, so a flag given
			// after the source file lands here looking like a bad program
			// argument. Name the actual mistake instead.
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "thorinc: flag %q after the source file: flags must precede the source file\n", a)
				stopProfiles()
				os.Exit(2)
			}
			fatal(fmt.Errorf("bad argument %q: %w", a, err))
		}
		args = append(args, v)
	}
	return args
}

// profileStop flushes any active profiles. fatal() and the usage path run it
// explicitly because os.Exit skips deferred calls.
var profileStop func()

// startProfiles begins CPU profiling and/or arms a heap-profile dump. Both
// are flushed by stopProfiles, which is safe to call more than once.
func startProfiles(cpu, mem string) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		cpuFile = f
	}
	profileStop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "thorinc: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "thorinc: memprofile:", err)
			}
		}
	}
}

func stopProfiles() {
	if profileStop != nil {
		profileStop()
		profileStop = nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thorinc:", err)
	stopProfiles()
	os.Exit(1)
}
