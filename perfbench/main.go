// Command perfbench is the repository benchmark: four closed-loop
// workloads (compile-small, compile-large, execute, daemon) driven through
// the public entry points of the driver and the compile server, every
// output checked against an independent oracle. See README.md.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object; the line before
// it holds the run's details (environment, sizes, per-input rows and the
// workload-specific metrics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thorin/internal/backend"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"op_ms_geomean", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"artifact_kb", "kB"},
	{"vm_instrs_per_op", "count"},
	{"wasm_fuel_per_op", "count"},
}

// perLayer are the metrics of a traced run, reported on every workload.
var perLayer = []metricSpec{
	{"impala.parse_ms", "ms"},
	{"impala.check_ms", "ms"},
	{"impala.emit_ms", "ms"},
	{"impala.tokens", "count"},
	{"impala.tokens_per_ms", "1/ms"},
	{"ir.nodes_emitted", "count"},
	{"ir.nodes_final", "count"},
	{"ir.intern_hit_ratio", "ratio"},
	{"ir.verify_ms", "ms"},
	{"pm.run_ms", "ms"},
	{"pm.cleanup_ms", "ms"},
	{"pm.pe_ms", "ms"},
	{"pm.cff_ms", "ms"},
	{"pm.contify_ms", "ms"},
	{"pm.mem2reg_ms", "ms"},
	{"pm.inline-once_ms", "ms"},
	{"pm.closure_ms", "ms"},
	{"pm.pass_runs", "count"},
	{"pm.skip_ratio", "ratio"},
	{"pm.memo_hits", "count"},
	{"pm.rewrites", "count"},
	{"analysis.cache_hit_ratio", "ratio"},
	{"analysis.stale", "count"},
	{"backend.vm_ms", "ms"},
	{"backend.wasm_ms", "ms"},
	{"backend.vm_kb", "kB"},
	{"backend.wasm_kb", "kB"},
	{"driver.encode_ms", "ms"},
	{"driver.decode_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"vm.ns_per_instr", "ns"},
	{"vm.calls", "count"},
	{"vm.closure_allocs", "count"},
	{"vm.heap_words", "count"},
	{"vm.alloc_mb", "MB"},
	{"wasm.decode_ms", "ms"},
	{"wasm.instantiate_ms", "ms"},
	{"wasm.invoke_ms", "ms"},
	{"wasm.ns_per_fuel", "ns"},
	{"trace.overhead_pct", "%"},
	{"trace.remainder_pct", "%"},
}

var workloads = []string{"compile-small", "compile-large", "execute", "daemon"}

type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	root      string
	setupReps int
	// small shrinks every size for the benchmark's own tests.
	small bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run produced.
type report struct {
	result
	values map[string]float64
	detail map[string]any
	trace  *traceSummary
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	root := flag.String("root", ".", "repository root (holds examples/ and the crasher corpus)")
	outDir := flag.String("out-dir", defaultOutDir(), "directory the traced run writes its spans to")
	flag.Parse()
	if flag.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	overridden := pinEnvironment()
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *traceFlag == 1,
		root:      *root,
		setupReps: 5,
	}
	rep, err := run(cfg)
	if err == nil && cfg.trace {
		err = writeTrace(rep, *outDir, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.detail["env"] = map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"seed": cfg.seed, "seconds": *seconds, "trace": cfg.trace, "workload": cfg.workload,
		"setup_reps": cfg.setupReps, "thorin_env_overridden": overridden,
	}
	line, err := json.Marshal(map[string]any{"detail": rep.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func defaultOutDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// pinEnvironment removes the environment variables that would change the
// compiler's jobs level or incremental mode behind the benchmark's back
// (every compile sets both explicitly) and runs Go on every CPU.
func pinEnvironment() []string {
	overridden := []string{}
	for _, k := range []string{"THORIN_JOBS", "THORIN_INCREMENTAL"} {
		if v, ok := os.LookupEnv(k); ok {
			overridden = append(overridden, k+"="+v)
			os.Unsetenv(k)
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return overridden
}

func writeTrace(rep *report, dir string, cfg config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	rep.detail["spans_file"] = path
	return rep.trace.writeSpans(path)
}

// run executes one workload and assembles its metrics.
func run(cfg config) (*report, error) {
	var rep *report
	var err error
	switch cfg.workload {
	case "compile-small", "compile-large", "execute":
		rep, err = runRoundWorkload(cfg)
	case "daemon":
		rep, err = runDaemon(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	rep.Metrics = map[string]metricValue{}
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", s.name)
		}
		rep.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	return rep, nil
}

// timedSetups runs setup reps times and returns the median duration in
// seconds. Only the last rep is traced; its state is the one measured.
func timedSetups(reps int, tr *tracer, setup func(tr *tracer) error) (float64, error) {
	var ts []float64
	for r := 0; r < reps; r++ {
		var str *tracer
		if r == reps-1 {
			str = tr
		}
		t0 := time.Now()
		if err := setup(str); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// exactMetrics are the metrics that repeat exactly: mean artifact size and
// the mean VM instruction count and wasm fuel of the checked executions.
func exactMetrics(v map[string]float64, oracle []execution, artifacts [][]byte) {
	size := 0
	for _, a := range artifacts {
		size += len(a)
	}
	var instrs, fuel []float64
	for _, ex := range oracle {
		if ex.target == backend.VM {
			instrs = append(instrs, float64(ex.instrs))
		} else {
			fuel = append(fuel, float64(ex.fuel))
		}
	}
	v["artifact_kb"] = ratio(float64(size), float64(len(artifacts))) / 1024
	v["vm_instrs_per_op"] = mean(instrs)
	v["wasm_fuel_per_op"] = mean(fuel)
}

// latencyMetrics are the timing metrics shared by every workload.
func latencyMetrics(v map[string]float64, detail map[string]any, all []float64) {
	p90 := quantile(all, 0.9)
	v["op_ms_p50"] = median(all)
	v["op_ms_p90"] = p90
	detail["samples"] = len(all)
	detail["samples_beyond_p90"] = above(all, p90)
}

func overheadPct(traced, untraced []float64) float64 {
	return 100 * (median(traced)/median(untraced) - 1)
}

func runRoundWorkload(cfg config) (*report, error) {
	var opSeq atomic.Int64
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now(), &opSeq)
	}
	var w *roundWorkload
	setupS, err := timedSetups(cfg.setupReps, tr, func(tr *tracer) error {
		var err error
		switch cfg.workload {
		case "compile-small":
			var inputs []*input
			if inputs, err = compileSmallInputs(cfg.root, cfg.small); err == nil {
				w, err = compileWorkload(inputs, targets, 1, tr)
			}
		case "compile-large":
			sz := compileLargeSizes(cfg.small)
			var inputs []*input
			if inputs, err = compileLargeInputs(sz); err == nil {
				w, err = compileWorkload(inputs, []backend.Target{backend.VM}, 2, tr)
			}
		case "execute":
			w, err = executeWorkload(cfg.small, tr)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := w.runRounds(rand.New(rand.NewSource(cfg.seed)), cfg.window, tr)

	rep := &report{values: map[string]float64{}, detail: map[string]any{"sizes": w.sizes}}
	rep.Correct, rep.Attempted, rep.Failed = true, r.attempted, r.failed
	v := rep.values
	exactMetrics(v, w.oracle, w.artifacts)
	latencyMetrics(v, rep.detail, r.all)
	var medians []float64
	byTarget := map[string][]float64{}
	rows := map[string]float64{}
	for i, xs := range r.perInput {
		m := median(xs)
		medians = append(medians, m)
		rows[w.names[i]] = m
		t := w.names[i][strings.LastIndex(w.names[i], "/")+1:]
		byTarget[t] = append(byTarget[t], m)
	}
	v["setup_s"] = setupS
	v["op_ms_geomean"] = geomean(medians)
	v["ops_per_s"] = float64(len(r.all)) / r.window.Seconds()
	v["alloc_mb_per_op"] = float64(r.allocs) / (1 << 20) / float64(r.attempted)
	rep.detail["rounds"] = len(r.perInput[0])
	rep.detail["input_ms_p50"] = rows
	for t, ms := range byTarget {
		rep.detail[t+"_ms_geomean"] = geomean(ms)
	}
	if cfg.trace {
		rep.trace = summarize([]*tracer{tr})
		for k, x := range rep.trace.layerMetrics() {
			v[k] = x
		}
		v["trace.overhead_pct"] = overheadPct(r.traced, r.all)
		rep.detail["self_time"] = rep.trace.selfTable()
	}
	return rep, nil
}

func runDaemon(cfg config) (*report, error) {
	var opSeq atomic.Int64
	t0 := time.Now()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(t0, &opSeq)
	}
	var d *daemon
	setupS, err := timedSetups(cfg.setupReps, tr, func(tr *tracer) error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		d, err = startDaemon(cfg.small, tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// The first fifth of the window is an untimed warm-up: connections,
	// goroutine stacks, the heap and the LRU (which starts evicting only
	// after about a hundred fresh entries) reach their steady state.
	fresh := newFreshSources(cfg.seed)
	m0 := d.srv.Metrics()
	warmEnd := time.Now().Add(cfg.window / 5)
	deadline := warmEnd.Add(cfg.window)
	results := make([]clientResult, daemonClients)
	clientTracers := make([]*tracer, daemonClients)
	var wg sync.WaitGroup
	for k := 0; k < daemonClients; k++ {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(k)))
		if cfg.trace {
			clientTracers[k] = newTracer(t0, &opSeq)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k] = d.runClient(rng, warmEnd, deadline, fresh, clientTracers[k])
		}()
	}
	time.Sleep(time.Until(warmEnd))
	a0 := heapAllocs()
	wg.Wait()
	window := time.Since(warmEnd)
	allocs := heapAllocs() - a0
	m1 := d.srv.Metrics()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}

	var total clientResult
	var untraced, traced []float64
	byKind := make([][]float64, len(kindNames))
	var missCompile, missOverhead []float64
	timed, timedOK := 0, 0
	for _, r := range results {
		total.attempted += r.attempted
		total.ok += r.ok
		total.hits += r.hits
		total.failed += r.failed
		total.modules += r.modules
		total.moduleHits += r.moduleHits
		total.pend = append(total.pend, r.pend...)
		for _, s := range r.samples {
			if s.warm {
				continue
			}
			timed++
			if s.ok {
				timedOK++
			}
			if s.traced {
				traced = append(traced, s.ms)
				continue
			}
			untraced = append(untraced, s.ms)
			byKind[s.kind] = append(byKind[s.kind], s.ms)
			if s.kind == kindMiss {
				missCompile = append(missCompile, ms(s.compileNs))
				missOverhead = append(missOverhead, s.ms-ms(s.compileNs))
			}
		}
	}
	// The replay's spans time the compile and link layers; its counters are
	// dropped, because which fresh sources a run sends depends on timing,
	// and the daemon's layer counts must repeat exactly like every other
	// workload's (they come from the fixed warm set).
	// The replay runs on every CPU, each worker with its own module cache.
	workers := runtime.NumCPU()
	verifyTracers := make([]*tracer, workers)
	verifyFailed := make([]int, workers)
	for k := 0; k < workers; k++ {
		if cfg.trace {
			verifyTracers[k] = newTracer(t0, &opSeq)
		}
		part := total.pend[k*len(total.pend)/workers : (k+1)*len(total.pend)/workers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			verifyFailed[k] = d.verify(verifyTracers[k], newModuleCompiler(backend.VM, 1), part)
		}()
	}
	wg.Wait()
	for k := range verifyTracers {
		total.failed += verifyFailed[k]
		if verifyTracers[k] != nil {
			verifyTracers[k].c = counts{}
		}
	}

	// Reconcile the daemon's own counters with what the clients saw.
	var mismatches []string
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"requests", m1.Requests - m0.Requests, int64(total.attempted)},
		{"ok", m1.OK - m0.OK, int64(total.ok)},
		{"cache_hits", m1.CacheHits - m0.CacheHits, int64(total.hits)},
		{"sheds", m1.Sheds - m0.Sheds, 0},
		{"retries_observed", m1.RetriesObserved - m0.RetriesObserved, 0},
	} {
		if c.got != c.want {
			mismatches = append(mismatches, fmt.Sprintf("%s: daemon %d, clients %d", c.name, c.got, c.want))
		}
	}
	if len(mismatches) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: daemon counters do not reconcile:", strings.Join(mismatches, "; "))
	}

	rep := &report{values: map[string]float64{}, detail: map[string]any{}}
	rep.Correct, rep.Attempted, rep.Failed = len(mismatches) == 0, total.attempted, total.failed
	v := rep.values
	exactMetrics(v, d.oracle, d.artifacts)
	latencyMetrics(v, rep.detail, untraced)
	var kindMedians []float64
	for k, xs := range byKind {
		kindMedians = append(kindMedians, median(xs))
		rep.detail[kindNames[k]+"_ms_p50"] = median(xs)
		rep.detail[kindNames[k]+"_count"] = len(xs)
	}
	v["setup_s"] = setupS
	v["op_ms_geomean"] = geomean(kindMedians)
	v["ops_per_s"] = float64(timedOK) / window.Seconds()
	v["alloc_mb_per_op"] = float64(allocs) / (1 << 20) / float64(timed)
	rep.detail["sizes"] = map[string]any{
		"warmup_s": (cfg.window / 5).Seconds(), "clients": daemonClients, "max_in_flight": 2, "cache_entries": daemonCacheEntries,
		"module_leaves": d.leaves, "warm_set": len(d.warm), "jobs": 1, "targets": targets,
	}
	rep.detail["reconciliation_mismatches"] = mismatches
	rep.detail["server"] = map[string]any{
		"server.miss_compile_ms":  median(missCompile),
		"server.miss_overhead_ms": median(missOverhead),
		"server.cache_hit_ratio":  ratio(float64(m1.CacheHits-m0.CacheHits), float64(m1.Requests-m0.Requests)),
		"server.module_hit_ratio": ratio(float64(total.moduleHits), float64(total.modules)),
		"server.evictions":        m1.Cache.Evictions - m0.Cache.Evictions,
		"server.coalesced":        m1.Coalesced - m0.Coalesced,
		"server.sheds":            m1.Sheds - m0.Sheds,
		"server.retries_observed": m1.RetriesObserved - m0.RetriesObserved,
	}
	if cfg.trace {
		rep.trace = summarize(append(append([]*tracer{tr}, verifyTracers...), clientTracers...))
		for k, x := range rep.trace.layerMetrics() {
			v[k] = x
		}
		v["trace.overhead_pct"] = overheadPct(traced, untraced)
		rep.detail["driver.module_compile_ms"] = median(rep.trace.durMs["driver.module_compile"])
		rep.detail["driver.link_ms"] = median(rep.trace.durMs["driver.link"])
		rep.detail["self_time"] = rep.trace.selfTable()
	}
	return rep, nil
}
