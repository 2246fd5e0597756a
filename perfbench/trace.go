package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share its op ID; setup work carries op -1.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans and layer counters for one goroutine. A nil tracer
// records nothing; every method is safe on nil.
type tracer struct {
	t0    time.Time
	opSeq *atomic.Int64
	op    int64
	stack []int
	spans []span
	c     counts
}

func newTracer(t0 time.Time, opSeq *atomic.Int64) *tracer {
	return &tracer{t0: t0, opSeq: opSeq, op: -1}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// beginOp assigns a fresh op ID and opens the op's root span.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op = t.opSeq.Add(1)
	return t.begin(name)
}

// endOp closes the op's root span; later spans belong to setup again.
func (t *tracer) endOp(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.op = -1
}

// counts are the layer counters read from values the program returns
// (pm.Report, ir stats, VM counters, wasm fuel) at the span boundaries.
type counts struct {
	compiles     int
	tokens       int
	nodesEmitted int
	nodesFinal   int
	internReq    int
	internHits   int
	passRuns     int
	passSkips    int
	memoHits     int
	rewrites     int
	cacheHits    int
	cacheMisses  int
	stale        int
	// passMs holds, per pass name, the pass's total time in each compile.
	passMs map[string][]float64

	vmRuns       int
	vmInstrs     int64
	vmCalls      int64
	vmClosures   int64
	vmHeapWords  int64
	vmAllocBytes uint64
	vmPayload    []int
	wasmRuns     int
	wasmFuel     int64
	wasmPayload  []int
}

func (c *counts) add(o *counts) {
	c.compiles += o.compiles
	c.tokens += o.tokens
	c.nodesEmitted += o.nodesEmitted
	c.nodesFinal += o.nodesFinal
	c.internReq += o.internReq
	c.internHits += o.internHits
	c.passRuns += o.passRuns
	c.passSkips += o.passSkips
	c.memoHits += o.memoHits
	c.rewrites += o.rewrites
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.stale += o.stale
	for k, v := range o.passMs {
		if c.passMs == nil {
			c.passMs = map[string][]float64{}
		}
		c.passMs[k] = append(c.passMs[k], v...)
	}
	c.vmRuns += o.vmRuns
	c.vmInstrs += o.vmInstrs
	c.vmCalls += o.vmCalls
	c.vmClosures += o.vmClosures
	c.vmHeapWords += o.vmHeapWords
	c.vmAllocBytes += o.vmAllocBytes
	c.vmPayload = append(c.vmPayload, o.vmPayload...)
	c.wasmRuns += o.wasmRuns
	c.wasmFuel += o.wasmFuel
	c.wasmPayload = append(c.wasmPayload, o.wasmPayload...)
}

// traceSummary is the merged view of every tracer of a run.
type traceSummary struct {
	spans []span
	c     counts
	// durMs and selfMs map a span name to the duration and the self time
	// (duration minus the time covered by child spans) of each span.
	durMs  map[string][]float64
	selfMs map[string][]float64
	// opMs and remainderMs hold, per traced op, its root span's duration
	// and self time: the part of the op no layer span accounts for.
	opMs        []float64
	remainderMs []float64
}

func summarize(trs []*tracer) *traceSummary {
	s := &traceSummary{durMs: map[string][]float64{}, selfMs: map[string][]float64{}}
	for _, t := range trs {
		s.c.add(&t.c)
		child := make([]time.Duration, len(t.spans))
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				child[sp.Parent] += sp.dur()
			}
		}
		for i, sp := range t.spans {
			self := ms(sp.dur() - child[i])
			s.durMs[sp.Name] = append(s.durMs[sp.Name], ms(sp.dur()))
			s.selfMs[sp.Name] = append(s.selfMs[sp.Name], self)
			if sp.Parent < 0 && sp.Op >= 0 {
				s.opMs = append(s.opMs, ms(sp.dur()))
				s.remainderMs = append(s.remainderMs, self)
			}
		}
		s.spans = append(s.spans, t.spans...)
	}
	return s
}

// layerMetrics derives the per-layer metrics every workload reports.
// Times are medians per call; counts are means per compile or per run.
func (s *traceSummary) layerMetrics() map[string]float64 {
	c := &s.c
	med := func(name string) float64 { return median(s.durMs[name]) }
	sum := func(name string) float64 { return sumF(s.durMs[name]) }
	per := func(n, d int) float64 { return ratio(float64(n), float64(d)) }
	m := map[string]float64{
		"impala.parse_ms":          med("impala.parse"),
		"impala.check_ms":          med("impala.check"),
		"impala.emit_ms":           med("impala.emit"),
		"impala.tokens":            per(c.tokens, c.compiles),
		"impala.tokens_per_ms":     ratio(float64(c.tokens), sum("impala.parse")),
		"ir.nodes_emitted":         per(c.nodesEmitted, c.compiles),
		"ir.nodes_final":           per(c.nodesFinal, c.compiles),
		"ir.intern_hit_ratio":      per(c.internHits, c.internReq),
		"ir.verify_ms":             med("ir.verify"),
		"pm.run_ms":                med("pm.run"),
		"pm.pass_runs":             per(c.passRuns, c.compiles),
		"pm.skip_ratio":            per(c.passSkips, c.passRuns),
		"pm.memo_hits":             per(c.memoHits, c.compiles),
		"pm.rewrites":              per(c.rewrites, c.compiles),
		"analysis.cache_hit_ratio": per(c.cacheHits, c.cacheHits+c.cacheMisses),
		"analysis.stale":           per(c.stale, c.compiles),
		"backend.vm_ms":            med("backend.vm"),
		"backend.wasm_ms":          med("backend.wasm"),
		"backend.vm_kb":            meanInts(c.vmPayload) / 1024,
		"backend.wasm_kb":          meanInts(c.wasmPayload) / 1024,
		"driver.encode_ms":         med("driver.encode"),
		"driver.decode_ms":         med("driver.decode"),
		"vm.run_ms":                med("vm.run"),
		"vm.ns_per_instr":          ratio(sum("vm.run")*1e6, float64(c.vmInstrs)),
		"vm.calls":                 ratio(float64(c.vmCalls), float64(c.vmRuns)),
		"vm.closure_allocs":        ratio(float64(c.vmClosures), float64(c.vmRuns)),
		"vm.heap_words":            ratio(float64(c.vmHeapWords), float64(c.vmRuns)),
		"vm.alloc_mb":              ratio(float64(c.vmAllocBytes)/(1<<20), float64(c.vmRuns)),
		"wasm.decode_ms":           med("wasm.decode"),
		"wasm.instantiate_ms":      med("wasm.instantiate"),
		"wasm.invoke_ms":           med("wasm.invoke"),
		"wasm.ns_per_fuel":         ratio(sum("wasm.invoke")*1e6, float64(c.wasmFuel)),
		"trace.remainder_pct":      100 * ratio(sumF(s.remainderMs), sumF(s.opMs)),
	}
	for _, p := range o2Passes {
		m["pm."+p+"_ms"] = median(c.passMs[p])
	}
	return m
}

// o2Passes are the passes of the -O2 pipeline, each reported as pm.<pass>_ms.
var o2Passes = []string{"cleanup", "pe", "cff", "contify", "mem2reg", "inline-once", "closure"}

func meanInts(xs []int) float64 {
	t := 0
	for _, x := range xs {
		t += x
	}
	return ratio(float64(t), float64(len(xs)))
}

func sumF(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTable lists each span name's total self time and its share of all
// traced time (setup included), largest first.
func (s *traceSummary) selfTable() []map[string]any {
	total := 0.0
	for _, xs := range s.selfMs {
		total += sumF(xs)
	}
	names := make([]string, 0, len(s.selfMs))
	for n := range s.selfMs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sumF(s.selfMs[names[i]]) > sumF(s.selfMs[names[j]]) })
	var out []map[string]any
	for _, n := range names {
		t := sumF(s.selfMs[n])
		out = append(out, map[string]any{"span": n, "calls": len(s.selfMs[n]), "self_ms": t, "share_pct": 100 * ratio(t, total)})
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (s *traceSummary) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
