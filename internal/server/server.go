// Package server implements thorind, the compile-server daemon: a
// long-lived HTTP/JSON service that accepts compile requests, runs each in
// a fresh per-request ir.World on the existing driver pipeline, and caches
// the emitted artifacts in a content-addressed store (in-memory LRU with
// an optional on-disk tier). Cache keys are a stable digest of (compiler
// version, source bytes, resolved pipeline spec, schedule mode, effective
// fixpoint iteration bound) — see
// CacheKey — so a cache hit skips the pipeline entirely and still returns
// byte-identical artifacts. Concurrent identical misses are single-flighted:
// one request compiles, the rest wait and are served from the cache.
//
// Multi-module requests (sources + link mode) additionally cache one
// artifact per module, keyed on the module's own source and the resolved
// signatures of its imports (ModuleCacheKey): a warm daemon recompiles
// only the edited module and relinks against cached artifacts of the rest.
//
// Request-level containment reuses the driver's fault-tolerance end to
// end: a poisoned request degrades per its policy or fails with a
// structured error naming the pass and the replayable crash bundle, and
// never takes the daemon down. GET /metrics exposes request counters,
// cache hit/miss rates, cumulative per-pass timings and interning totals;
// Shutdown drains in-flight requests for graceful SIGTERM handling.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"thorin/internal/backend"
	"thorin/internal/driver"
	"thorin/internal/faultinject"
	"thorin/internal/impala"
	"thorin/internal/link"
	"thorin/internal/pm"
)

// MaxRequestBytes bounds the /compile request body; a source file larger
// than this is rejected with 413 rather than buffered.
const MaxRequestBytes = 32 << 20

// StatusClientClosedRequest is the status recorded for a request whose
// client disconnected mid-compile (the nginx 499 convention). The client
// is gone, so the code is for logs and tests, not for the wire.
const StatusClientClosedRequest = 499

// FaultHTTPResponse is the HTTP-layer fault-injection point: when armed
// and fired, a /compile that finished successfully answers 503 instead of
// its result — a transient server fault for exercising client retries.
// The compiled artifact still enters the cache, so the retry is cheap.
const FaultHTTPResponse = "server.http.response"

// Config parameterizes a daemon instance.
type Config struct {
	// CacheEntries is the in-memory LRU capacity (entries). 0 selects
	// DefaultCacheEntries.
	CacheEntries int
	// CacheDir, when non-empty, enables the on-disk artifact tier so the
	// cache survives restarts.
	CacheDir string
	// CrashDir is where crash bundles for failing requests are written
	// ("" disables bundles). Bundles replay with `thorinc -replay`
	// exactly like CLI-produced ones — they share the writer.
	CrashDir string
	// DefaultJobs is the analysis worker count used when a request does
	// not set jobs itself. 0 keeps the driver default.
	DefaultJobs int
	// MaxInFlight bounds concurrently executing /compile requests. 0
	// selects DefaultMaxInFlight (sized to the machine); negative disables
	// admission control entirely.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a compile slot beyond
	// MaxInFlight; requests past the queue are shed immediately with 429.
	// 0 selects 4×MaxInFlight; negative disables queueing (full slots shed
	// at once).
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed. 0 selects DefaultQueueWait.
	QueueWait time.Duration
	// FaultInjector, when non-nil, arms deterministic fault injection in
	// the cache disk tier and the HTTP response path (tests and the chaos
	// suite; see internal/faultinject).
	FaultInjector *faultinject.Injector
	// Log receives request logs; nil silences them.
	Log *log.Logger
}

// DefaultCacheEntries is the in-memory artifact capacity when
// Config.CacheEntries is zero.
const DefaultCacheEntries = 256

// DefaultQueueWait is the admission queue wait bound when Config.QueueWait
// is zero: long enough to ride out a burst of short compiles, short enough
// that a shed client learns quickly.
const DefaultQueueWait = time.Second

// DefaultMaxInFlight sizes the compile semaphore to the machine:
// compilation is CPU-bound, so slots beyond the core count only add
// scheduling pressure.
func DefaultMaxInFlight() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// Server is one daemon instance. Create with New, attach to a listener
// with Serve (or use Handler with an external http.Server), stop with
// Shutdown.
type Server struct {
	cfg      Config
	cache    *Cache
	flights  *flight
	metrics  *metrics
	admit    *admission
	inj      *faultinject.Injector
	draining atomic.Bool
	httpSrv  *http.Server
}

// New builds a Server. It does not listen yet.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight()
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = 4 * maxInFlight
	}
	queueWait := cfg.QueueWait
	if queueWait == 0 {
		queueWait = DefaultQueueWait
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheDir),
		flights: newFlight(),
		metrics: newMetrics(),
		admit:   newAdmission(maxInFlight, maxQueue, queueWait),
		inj:     cfg.FaultInjector,
	}
	s.cache.SetInjector(cfg.FaultInjector)
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s
}

// CompileResponse is the /compile success body. The artifact is embedded
// verbatim (it is itself JSON) so cache hits are served without a decode.
type CompileResponse struct {
	// Key is the content address the artifact is cached under.
	Key string `json:"key"`
	// Cache reports how the request was served: "miss" (compiled),
	// "memory" or "disk" (cache hit), or "uncached" (compiled but not
	// stored — degraded results are never cached).
	Cache string `json:"cache"`
	// CompileNs is the wall time of the compilation; 0 on cache hits.
	CompileNs time.Duration `json:"compile_ns"`
	Degraded  bool          `json:"degraded,omitempty"`
	// FailedPasses, CrashBundle and CrashBundleErr mirror driver.Result for
	// degraded compiles; CrashBundleErr reports a bundle that could not be
	// written (the pass failure that wanted it is never masked).
	FailedPasses   []string `json:"failed_passes,omitempty"`
	CrashBundle    string   `json:"crash_bundle,omitempty"`
	CrashBundleErr string   `json:"crash_bundle_err,omitempty"`
	// Artifact is the encoded driver.Artifact.
	Artifact json.RawMessage `json:"artifact"`
	// Modules reports, for a multi-module request that missed the
	// whole-program key, how each per-module artifact was served (request
	// order). Whole-program cache hits skip module compilation entirely
	// and carry no per-module info.
	Modules []ModuleCacheInfo `json:"modules,omitempty"`
}

// ModuleCacheInfo reports how one module of a separate compilation was
// served: its per-module cache key and tier ("memory", "disk", or "miss"
// when it was compiled this request).
type ModuleCacheInfo struct {
	Name  string `json:"name"`
	Key   string `json:"key"`
	Cache string `json:"cache"`
}

// ErrorResponse is the structured failure body (HTTP 4xx/5xx).
type ErrorResponse struct {
	Error string `json:"error"`
	// Pass names the failing optimizer pass when the failure is
	// attributable to one.
	Pass string `json:"pass,omitempty"`
	// BackendTarget and BackendFunc identify a code generation failure:
	// the emitter that failed ("vm", "wasm") and, when known, the
	// function it was emitting.
	BackendTarget string `json:"backend_target,omitempty"`
	BackendFunc   string `json:"backend_func,omitempty"`
	// CrashBundle is the replayable reproduction bundle written for the
	// failure, when bundles are enabled.
	CrashBundle string `json:"crash_bundle,omitempty"`
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Serve accepts connections on l until Shutdown. It reports
// http.ErrServerClosed as nil, matching the graceful path.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the daemon: new and queued /compile requests
// are refused with 503 from this point on, the listener closes, in-flight
// requests run to completion (bounded by ctx), and only then does
// Shutdown return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.httpSrv.Shutdown(ctx)
}

// Metrics snapshots the daemon's counters.
func (s *Server) Metrics() Metrics {
	return s.metrics.snapshot(s.cache.Stats(), s.admit.queueDepth())
}

// handleCompile serves POST /compile: admit the request past the
// load-shedding gate, resolve it, consult the content-addressed cache,
// compile on a miss under the request's context, and answer with the
// artifact. Every failure path — bad request, shed, blown deadline, client
// disconnect, pass failure, even a panic that escapes the driver's own
// containment — produces a structured answer, increments exactly one
// outcome counter, and leaves the daemon serving.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	s.metrics.begin()
	defer s.metrics.end()
	if r.Header.Get(AttemptHeader) != "" && r.Header.Get(AttemptHeader) != "0" {
		s.metrics.retryObserved()
	}

	// The driver contains pass, frontend and codegen panics itself; this
	// recover is the daemon's last line for bugs in the server layer.
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("panic serving /compile: %v\n%s", rec, debug.Stack())
			s.metrics.failed()
			s.writeError(w, http.StatusInternalServerError,
				ErrorResponse{Error: fmt.Sprintf("server: internal panic: %v", rec)})
		}
	}()

	// Refuse before admitting: a draining daemon finishes what it has and
	// takes nothing new, so clients fail over (or retry elsewhere) fast.
	if s.draining.Load() {
		s.metrics.drainRefusal()
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.metrics.failed()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: "request too large"})
		} else {
			// Anything else — client disconnect, transport fault — is a bad
			// request, not an oversized one.
			s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "read request: " + err.Error()})
		}
		return
	}
	var req driver.Request
	if err := json.Unmarshal(body, &req); err != nil {
		s.metrics.failed()
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error()})
		return
	}
	rr, err := req.Resolve(s.cfg.CrashDir)
	if err != nil {
		s.metrics.failed()
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if rr.Config.Jobs == 0 {
		rr.Config.Jobs = s.cfg.DefaultJobs
	}

	// The request context ends when the client disconnects; the request's
	// own deadline_ms tightens it further, and covers the queue wait too —
	// deadline spent waiting for a compile slot is spent.
	ctx, cancel := rr.WithDeadline(r.Context())
	defer cancel()

	// Admission: take a compile slot, park briefly in the bounded queue for
	// one, or shed. Shedding answers a fast 429 so a retrying client backs
	// off instead of stacking goroutines until latency collapses for all.
	switch s.admit.acquire(ctx) {
	case admitOK:
		defer s.admit.release()
	case admitShed:
		s.metrics.shed()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, ErrorResponse{Error: "server overloaded, retry later"})
		return
	case admitGone:
		s.writeInterrupted(w, ctx.Err(), "queued")
		return
	}

	key := requestKey(rr)
	if data, tier := s.cache.Get(key); data != nil {
		s.metrics.hit()
		s.logf("compile %s: %s hit (%d bytes)", key[:12], tier, len(data))
		s.writeJSON(w, http.StatusOK, CompileResponse{
			Key:      key,
			Cache:    tier,
			Artifact: json.RawMessage(data),
		})
		return
	}

	// Single-flight: concurrent identical misses share one compilation. The
	// leader compiles and publishes through the cache; followers wait, then
	// re-read it. A follower whose leader failed or produced an uncacheable
	// (degraded) result finds the cache still cold and compiles for itself.
	leader, flightDone, wait := s.flights.begin(key)
	if leader {
		defer flightDone()
	} else {
		select {
		case <-wait:
		case <-ctx.Done():
			// The follower's client gave up (or its deadline expired) while
			// the leader was still compiling; the leader is unaffected.
			s.writeInterrupted(w, ctx.Err(), "coalesced")
			return
		}
		if data, tier := s.cache.Get(key); data != nil {
			s.metrics.coalescedHit()
			s.logf("compile %s: coalesced into in-flight compile, %s hit (%d bytes)", key[:12], tier, len(data))
			s.writeJSON(w, http.StatusOK, CompileResponse{
				Key:      key,
				Cache:    tier,
				Artifact: json.RawMessage(data),
			})
			return
		}
	}

	start := time.Now()
	var res *driver.Result
	var modTiers []ModuleCacheInfo
	if len(rr.Sources) > 0 {
		res, modTiers, err = s.compileModules(ctx, rr)
	} else {
		res, err = driver.Compile(ctx, rr)
	}
	if err != nil {
		// A compile stopped by its context is an interruption, not a compile
		// failure: the deadline/cancel counters own it, not Errors.
		if errors.Is(err, pm.ErrDeadline) || errors.Is(err, pm.ErrCanceled) {
			s.logf("compile %s: interrupted: %v", key[:12], err)
			s.writeInterrupted(w, err, "compiling")
			return
		}
		s.metrics.failed()
		resp := ErrorResponse{Error: err.Error()}
		if pass, ok := pm.FailedPass(err); ok {
			resp.Pass = pass
		}
		var berr *backend.Error
		if errors.As(err, &berr) {
			resp.BackendTarget = string(berr.Target)
			resp.BackendFunc = berr.Func
		}
		if bundle, ok := driver.CrashBundle(err); ok {
			resp.CrashBundle = bundle
		}
		s.logf("compile %s: failed: %v", key[:12], err)
		s.writeError(w, http.StatusUnprocessableEntity, resp)
		return
	}
	elapsed := time.Since(start)

	art := driver.NewArtifact(res, res.Spec, rr.Mode.String())
	data, err := art.Encode()
	if err != nil {
		s.metrics.failed()
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}

	tier := "uncached"
	if !res.Degraded {
		// A degraded artifact is not the program the requested spec
		// denotes; caching it would serve the degraded result to every
		// future requester of the healthy key.
		tier = "miss"
		if err := s.cache.Put(key, data); err != nil {
			s.logf("compile %s: cache store: %v", key[:12], err)
		}
	}
	// The HTTP-layer fault point fires after the artifact is cached but
	// before the outcome is recorded, so the request counts as exactly one
	// error: the injected 503 is a transient wire fault, and the client's
	// retry is served from the cache.
	if ferr, fired := s.inj.Fail(FaultHTTPResponse); fired {
		s.metrics.failed()
		msg := "injected transient fault"
		if ferr != nil {
			msg = ferr.Error()
		}
		s.logf("compile %s: injected response fault", key[:12])
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg})
		return
	}
	s.metrics.compiled(elapsed, res.Degraded, res.Report, res.World.InternStats())

	s.logf("compile %s: %s in %s (%d bytes, degraded=%v)", key[:12], tier, elapsed, len(data), res.Degraded)
	s.writeJSON(w, http.StatusOK, CompileResponse{
		Key:            key,
		Cache:          tier,
		CompileNs:      elapsed,
		Degraded:       res.Degraded,
		FailedPasses:   res.FailedPasses,
		CrashBundle:    res.CrashBundle,
		CrashBundleErr: res.CrashBundleErr,
		Artifact:       json.RawMessage(data),
		Modules:        modTiers,
	})
}

// requestKey derives a resolved request's cache key. A multi-module
// request is keyed over its full sorted source set plus the link mode;
// per-module keys are consulted separately on a miss (see compileModules).
func requestKey(rr *driver.Resolved) string {
	keySource := rr.Source
	if len(rr.Sources) > 0 {
		keySource = MultiSourceKeyInput(rr.Sources, string(rr.Link))
	}
	return CacheKey(driver.Version, keySource, rr.Spec, rr.Mode.String(), string(rr.Config.Target), effectiveFixIters(rr.Config.Budget))
}

// writeInterrupted answers a request ended by its context rather than by a
// compile failure: a blown deadline gets 504 Gateway Timeout, a client
// disconnect gets the 499 convention (nobody reads it; it keeps logs,
// tests and the outcome partition honest). where names the phase the
// interruption landed in, for the logs.
func (s *Server) writeInterrupted(w http.ResponseWriter, err error, where string) {
	if errors.Is(err, pm.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) {
		s.metrics.deadlined()
		s.writeError(w, http.StatusGatewayTimeout,
			ErrorResponse{Error: fmt.Sprintf("deadline exceeded while %s", where)})
		return
	}
	s.metrics.canceledReq()
	s.writeError(w, StatusClientClosedRequest,
		ErrorResponse{Error: fmt.Sprintf("client disconnected while %s", where)})
}

// compileModules runs the separate-compilation path of a /compile miss:
// each module is fetched from the cache under its ModuleCacheKey or
// compiled and stored, then the set is linked and finished into a
// whole-program result. Cold compiles are round-tripped through their
// encoded artifact before linking, so the linker receives bit-identical
// inputs whether a module came from the cache or was built this request —
// cold and warm requests produce byte-identical programs. Module compiles
// are fail-fast (never degraded), so every module artifact is cacheable.
// ctx interrupts module compiles at pass boundaries like any other
// compile; modules already built (and cached) before the interruption stay
// cached.
func (s *Server) compileModules(ctx context.Context, rr *driver.Resolved) (*driver.Result, []ModuleCacheInfo, error) {
	cfg := rr.Config
	cfg.Ctx = ctx
	units, err := driver.ParseModules(rr.Sources)
	if err != nil {
		return nil, nil, err
	}
	infos := make([]*impala.ModuleInfo, len(units))
	for i, u := range units {
		infos[i] = u.Info
	}
	// Resolving the import graph up front surfaces link-time type errors
	// before any pipeline work, and yields the per-module import
	// descriptors the cache keys depend on.
	resolved, err := link.ResolveImports(infos)
	if err != nil {
		return nil, nil, err
	}
	moduleSpec := driver.ModuleSpec(rr.Spec)
	fixIters := effectiveFixIters(cfg.Budget)
	targetName := string(cfg.Target)
	mods := make([]*link.Module, len(units))
	tiers := make([]ModuleCacheInfo, len(units))
	for i, u := range units {
		mkey := ModuleCacheKey(driver.Version, u.Source, moduleSpec, targetName, fixIters, resolved[u.Name()])
		tiers[i] = ModuleCacheInfo{Name: u.Name(), Key: mkey, Cache: "miss"}
		if data, tier := s.cache.Get(mkey); data != nil {
			if art, err := driver.DecodeModuleArtifact(data); err == nil {
				if m, err := art.Module(); err == nil {
					mods[i] = m
					tiers[i].Cache = tier
				}
			}
			// An undecodable in-memory entry (version skew cannot reach
			// here, but defense in depth) falls through to a recompile
			// that overwrites it.
		}
		if mods[i] != nil {
			continue
		}
		m, err := driver.CompileModuleUnit(u, rr.Spec, cfg)
		if err != nil {
			return nil, nil, err
		}
		data, err := driver.NewModuleArtifact(m, moduleSpec).Encode()
		if err != nil {
			return nil, nil, err
		}
		if err := s.cache.Put(mkey, data); err != nil {
			s.logf("module %s %s: cache store: %v", u.Name(), mkey[:12], err)
		}
		art, err := driver.DecodeModuleArtifact(data)
		if err != nil {
			return nil, nil, err
		}
		if mods[i], err = art.Module(); err != nil {
			return nil, nil, err
		}
	}
	res, err := driver.LinkCompiled(mods, rr.Spec, rr.Link, rr.Mode, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, tiers, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// handleHealthz reports liveness with gradations: "ok" when fully healthy,
// "degraded: ..." (still 200 — the daemon IS serving) when overloaded or
// running memory-only after a cache-disk fault, and 503 "draining" during
// shutdown so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case s.cache.DiskDegraded():
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "degraded: cache-disk\n")
	case s.admit.saturated():
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "degraded: overloaded\n")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.logf("write response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	s.writeJSON(w, status, resp)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}
