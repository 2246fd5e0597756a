package server

import (
	"maps"
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

// metrics is the mutable accumulator behind Metrics: every counter lives
// in the embedded Metrics under mu, and snapshot fills in the sampled
// fields.
type metrics struct {
	mu    sync.Mutex
	start time.Time
	Metrics
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), Metrics: Metrics{Passes: make(map[string]PassTotal)}}
}

func (m *metrics) begin() {
	m.mu.Lock()
	m.Requests++
	m.InFlight++
	m.mu.Unlock()
}

func (m *metrics) end() {
	m.mu.Lock()
	m.InFlight--
	m.mu.Unlock()
}

func (m *metrics) hit() {
	m.mu.Lock()
	m.OK++
	m.CacheHits++
	m.mu.Unlock()
}

// coalesced records a request served from the cache after waiting out an
// identical in-flight compilation.
func (m *metrics) coalescedHit() {
	m.mu.Lock()
	m.OK++
	m.CacheHits++
	m.Coalesced++
	m.mu.Unlock()
}

func (m *metrics) failed() {
	m.mu.Lock()
	m.Errors++
	m.mu.Unlock()
}

// shed records a request refused by admission control (429).
func (m *metrics) shed() {
	m.mu.Lock()
	m.Sheds++
	m.mu.Unlock()
}

// canceledReq records a request abandoned by its client.
func (m *metrics) canceledReq() {
	m.mu.Lock()
	m.Canceled++
	m.mu.Unlock()
}

// deadlined records a request that blew its deadline budget.
func (m *metrics) deadlined() {
	m.mu.Lock()
	m.DeadlineExceeded++
	m.mu.Unlock()
}

// drainRefusal records a request refused because the daemon is draining.
func (m *metrics) drainRefusal() {
	m.mu.Lock()
	m.DrainRefused++
	m.mu.Unlock()
}

// retryObserved records a request that arrived with a retry attempt header.
func (m *metrics) retryObserved() {
	m.mu.Lock()
	m.RetriesObserved++
	m.mu.Unlock()
}

// compiled folds one cache-miss compilation into the totals.
func (m *metrics) compiled(elapsed time.Duration, degraded bool, rep *pm.Report, st ir.InternStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.OK++
	if degraded {
		m.Degraded++
	}
	m.CompileNs += elapsed
	m.Intern.Requested += int64(st.Requested)
	m.Intern.ConsHits += int64(st.ConsHits)
	m.Intern.Nodes += int64(st.Nodes)
	if rep == nil {
		return
	}
	for _, run := range rep.Runs {
		t := m.Passes[run.Name]
		t.Runs++
		if run.Skipped {
			t.Skipped++
		}
		t.Rewrites += run.Rewrites
		t.TimeNs += run.Time
		m.Passes[run.Name] = t
	}
}

// snapshot renders the accumulator as the wire Metrics value. queueDepth
// is sampled live from the admission controller by the caller.
func (m *metrics) snapshot(cache CacheStats, queueDepth int64) Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.Metrics
	out.UptimeNs = time.Since(m.start)
	out.QueueDepth = queueDepth
	out.Cache = cache
	out.Passes = nil
	if len(m.Passes) > 0 {
		out.Passes = maps.Clone(m.Passes)
	}
	return out
}
