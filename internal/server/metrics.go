package server

import (
	"sync"
	"time"

	"thorin/internal/ir"
	"thorin/internal/pm"
)

// PassTotal accumulates one pass's instrumentation across every request
// the daemon has served.
type PassTotal struct {
	Runs     int           `json:"runs"`
	Skipped  int           `json:"skipped,omitempty"`
	Rewrites int           `json:"rewrites"`
	TimeNs   time.Duration `json:"time_ns"`
}

// InternTotals sums ir.InternStats over every compiled world, giving the
// fleet-wide hash-consing picture (/metrics exposes it alongside the
// request counters).
type InternTotals struct {
	Requested int64 `json:"requested"`
	ConsHits  int64 `json:"cons_hits"`
	Nodes     int64 `json:"nodes"`
}

// Metrics is the daemon's observable state, serialized by GET /metrics.
type Metrics struct {
	UptimeNs time.Duration `json:"uptime_ns"`
	// Request outcomes partition exactly:
	//
	//	Requests = OK + Errors + Sheds + Canceled + DeadlineExceeded + DrainRefused
	//
	// Every admitted-or-refused /compile increments Requests and exactly one
	// outcome counter; the chaos suite asserts the equation holds to the
	// request. Degraded and CacheHits count subsets of OK.
	Requests  int64 `json:"requests"`
	OK        int64 `json:"ok"`
	Errors    int64 `json:"errors"`
	Degraded  int64 `json:"degraded"`
	InFlight  int64 `json:"in_flight"`
	CacheHits int64 `json:"cache_hits"`
	// Sheds counts requests refused by admission control (429): the
	// in-flight limit was reached and the wait queue was full or the queue
	// wait timed out.
	Sheds int64 `json:"sheds,omitempty"`
	// Canceled counts requests abandoned by their client (disconnect)
	// before or during compilation.
	Canceled int64 `json:"canceled,omitempty"`
	// DeadlineExceeded counts requests that blew their deadline_ms budget
	// (504).
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	// DrainRefused counts requests refused with 503 because the daemon was
	// shutting down.
	DrainRefused int64 `json:"drain_refused,omitempty"`
	// RetriesObserved counts requests that arrived carrying a retry
	// attempt header (X-Thorin-Attempt > 0), i.e. re-sends from a backing-off
	// client.
	RetriesObserved int64 `json:"retries_observed,omitempty"`
	// QueueDepth is the number of requests currently parked in the
	// admission wait queue (a live gauge, like InFlight).
	QueueDepth int64 `json:"queue_depth"`
	// Coalesced counts requests that joined an identical in-flight
	// compilation (single-flight) and were served from its cached result;
	// they are also counted in CacheHits.
	Coalesced int64 `json:"coalesced,omitempty"`
	// CompileNs is wall time spent actually compiling (cache misses).
	CompileNs time.Duration `json:"compile_ns"`
	Cache     CacheStats    `json:"cache"`
	Intern    InternTotals  `json:"intern"`
	// Passes maps pass name to its cumulative instrumentation, from each
	// compiled request's pm.Report.
	Passes map[string]PassTotal `json:"passes,omitempty"`
}

// metrics is the mutable accumulator behind Metrics.
type metrics struct {
	mu               sync.Mutex
	start            time.Time
	requests         int64
	ok               int64
	errors           int64
	degraded         int64
	inFlight         int64
	cacheHits        int64
	coalesced        int64
	sheds            int64
	canceled         int64
	deadlineExceeded int64
	drainRefused     int64
	retriesObserved  int64
	compileNs        time.Duration
	intern           InternTotals
	passes           map[string]PassTotal
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), passes: make(map[string]PassTotal)}
}

func (m *metrics) begin() {
	m.mu.Lock()
	m.requests++
	m.inFlight++
	m.mu.Unlock()
}

func (m *metrics) end() {
	m.mu.Lock()
	m.inFlight--
	m.mu.Unlock()
}

func (m *metrics) hit() {
	m.mu.Lock()
	m.ok++
	m.cacheHits++
	m.mu.Unlock()
}

// coalesced records a request served from the cache after waiting out an
// identical in-flight compilation.
func (m *metrics) coalescedHit() {
	m.mu.Lock()
	m.ok++
	m.cacheHits++
	m.coalesced++
	m.mu.Unlock()
}

func (m *metrics) failed() {
	m.mu.Lock()
	m.errors++
	m.mu.Unlock()
}

// shed records a request refused by admission control (429).
func (m *metrics) shed() {
	m.mu.Lock()
	m.sheds++
	m.mu.Unlock()
}

// canceledReq records a request abandoned by its client.
func (m *metrics) canceledReq() {
	m.mu.Lock()
	m.canceled++
	m.mu.Unlock()
}

// deadlined records a request that blew its deadline budget.
func (m *metrics) deadlined() {
	m.mu.Lock()
	m.deadlineExceeded++
	m.mu.Unlock()
}

// drainRefusal records a request refused because the daemon is draining.
func (m *metrics) drainRefusal() {
	m.mu.Lock()
	m.drainRefused++
	m.mu.Unlock()
}

// retryObserved records a request that arrived with a retry attempt header.
func (m *metrics) retryObserved() {
	m.mu.Lock()
	m.retriesObserved++
	m.mu.Unlock()
}

// compiled folds one cache-miss compilation into the totals.
func (m *metrics) compiled(elapsed time.Duration, degraded bool, rep *pm.Report, st ir.InternStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ok++
	if degraded {
		m.degraded++
	}
	m.compileNs += elapsed
	m.intern.Requested += int64(st.Requested)
	m.intern.ConsHits += int64(st.ConsHits)
	m.intern.Nodes += int64(st.Nodes)
	if rep == nil {
		return
	}
	for _, run := range rep.Runs {
		t := m.passes[run.Name]
		t.Runs++
		if run.Skipped {
			t.Skipped++
		}
		t.Rewrites += run.Rewrites
		t.TimeNs += run.Time
		m.passes[run.Name] = t
	}
}

// snapshot renders the accumulator as the wire Metrics value. queueDepth
// is sampled live from the admission controller by the caller.
func (m *metrics) snapshot(cache CacheStats, queueDepth int64) Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		UptimeNs:         time.Since(m.start),
		Requests:         m.requests,
		OK:               m.ok,
		Errors:           m.errors,
		Degraded:         m.degraded,
		InFlight:         m.inFlight,
		CacheHits:        m.cacheHits,
		Coalesced:        m.coalesced,
		Sheds:            m.sheds,
		Canceled:         m.canceled,
		DeadlineExceeded: m.deadlineExceeded,
		DrainRefused:     m.drainRefused,
		RetriesObserved:  m.retriesObserved,
		QueueDepth:       queueDepth,
		CompileNs:        m.compileNs,
		Cache:            cache,
		Intern:           m.intern,
	}
	if len(m.passes) > 0 {
		out.Passes = make(map[string]PassTotal, len(m.passes))
		for name, t := range m.passes {
			out.Passes[name] = t
		}
	}
	return out
}
