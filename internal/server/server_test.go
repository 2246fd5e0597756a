package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"thorin/internal/driver"
	"thorin/internal/pm"
)

// srvPanicPass stands in for a buggy optimizer pass: any request whose
// spec names "srv-panic" blows up mid-pipeline, exercising the daemon's
// request containment.
type srvPanicPass struct{}

func (srvPanicPass) Name() string { return "srv-panic" }
func (srvPanicPass) Run(*pm.Context) (pm.Result, error) {
	panic("server test pass exploding")
}

// srvSlowPass is a no-op pass that takes long enough for concurrent
// identical requests to pile up behind the single-flight leader.
type srvSlowPass struct{}

func (srvSlowPass) Name() string { return "srv-slow" }
func (srvSlowPass) Run(*pm.Context) (pm.Result, error) {
	time.Sleep(300 * time.Millisecond)
	return pm.Result{}, nil
}

func init() {
	pm.Register(srvPanicPass{})
	pm.Register(srvSlowPass{})
}

const fibSrc = `
fn fib(n: i64) -> i64 { if n < 2 { n } else { fib(n - 1) + fib(n - 2) } }
fn main(n: i64) -> i64 { fib(n) }
`

const faultySpec = "cleanup,pe,srv-panic,cleanup,closure"

// startServer runs a daemon on an ephemeral port and returns a client plus
// the shutdown function.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, &Client{Addr: l.Addr().String()}
}

// compilePost builds an in-process POST /compile request for handler-level
// tests that do not need a real socket.
func compilePost(t *testing.T, req *driver.Request) *http.Request {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
}

// TestCompileColdThenWarm: the first request compiles (miss), the second
// identical request is served from cache with byte-identical artifact
// bytes, and both decode to a program that runs correctly.
func TestCompileColdThenWarm(t *testing.T) {
	_, c := startServer(t, Config{})
	req := &driver.Request{Source: fibSrc}

	cold, coldArt, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", cold.Cache)
	}
	got, _, err := driver.Exec(coldArt.Target, coldArt.Program, coldArt.Wasm, nil, 0, 10)
	if err != nil || got != 55 {
		t.Fatalf("cold artifact: fib(10) = %d err=%v, want 55", got, err)
	}

	warm, warmArt, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "memory" {
		t.Errorf("second request cache = %q, want memory", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Errorf("key changed between identical requests: %s vs %s", cold.Key, warm.Key)
	}
	if !bytes.Equal(cold.Artifact, warm.Artifact) {
		t.Error("cached artifact bytes differ from the compiled ones")
	}
	if got, _, err := driver.Exec(warmArt.Target, warmArt.Program, warmArt.Wasm, nil, 0, 10); err != nil || got != 55 {
		t.Fatalf("warm artifact: fib(10) = %d err=%v, want 55", got, err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.OK != 2 || m.CacheHits != 1 {
		t.Errorf("metrics requests=%d ok=%d hits=%d, want 2/2/1", m.Requests, m.OK, m.CacheHits)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Intern.Requested == 0 || m.Intern.Nodes == 0 {
		t.Error("intern totals not accumulated")
	}
	if len(m.Passes) == 0 || m.Passes["cleanup"].Runs == 0 {
		t.Errorf("per-pass totals not accumulated: %+v", m.Passes)
	}
}

// TestPanickingRequestContained: a request that triggers a pass panic gets
// a structured error naming the pass (and a replayable bundle), and the
// daemon keeps serving subsequent requests correctly — the ISSUE 6
// acceptance scenario.
func TestPanickingRequestContained(t *testing.T) {
	crashDir := t.TempDir()
	_, c := startServer(t, Config{CrashDir: crashDir})

	_, _, err := c.Compile(&driver.Request{Source: fibSrc, Spec: faultySpec})
	if err == nil {
		t.Fatal("poisoned request unexpectedly succeeded")
	}
	re, ok := err.(*RemoteError)
	if !ok {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	if re.Status != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", re.Status)
	}
	if re.Pass != "srv-panic" {
		t.Errorf("error names pass %q, want srv-panic", re.Pass)
	}
	if re.CrashBundle == "" {
		t.Error("no crash bundle in the structured error")
	}

	// The daemon must still be healthy and compile correctly.
	if !c.Healthy() {
		t.Fatal("daemon unhealthy after poisoned request")
	}
	for i := 0; i < 3; i++ {
		resp, art, err := c.Compile(&driver.Request{Source: fibSrc})
		if err != nil {
			t.Fatalf("request %d after panic: %v", i, err)
		}
		if got, _, err := driver.Exec(art.Target, art.Program, art.Wasm, nil, 0, 10); err != nil || got != 55 {
			t.Fatalf("request %d after panic: fib(10) = %d err=%v", i, got, err)
		}
		if i > 0 && resp.Cache != "memory" {
			t.Errorf("request %d after panic: cache = %q, want memory", i, resp.Cache)
		}
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 1 || m.OK != 3 {
		t.Errorf("metrics errors=%d ok=%d, want 1/3", m.Errors, m.OK)
	}
}

// TestUnknownPassIsBadRequest: a spec naming an unregistered pass is
// refused by Request.Resolve with a 400 before admission, so the request
// never reaches the cache or the frontend. It is counted once, in Errors,
// like any other bad request (the outcome counters partition Requests).
func TestUnknownPassIsBadRequest(t *testing.T) {
	_, c := startServer(t, Config{})

	_, _, err := c.Compile(&driver.Request{Source: fibSrc, Spec: "cleanup,nosuchpass,closure"})
	re, ok := err.(*RemoteError)
	if !ok {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	if re.Status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (%v)", re.Status, re)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 1 || m.Errors != 1 {
		t.Errorf("metrics requests=%d errors=%d, want 1/1", m.Requests, m.Errors)
	}
	if m.Cache.Misses != 0 || m.CompileNs != 0 || len(m.Passes) != 0 {
		t.Errorf("bad request reached the cache or the compiler: misses=%d compile_ns=%d passes=%v",
			m.Cache.Misses, m.CompileNs, m.Passes)
	}
}

// TestItersBudgetDoesNotPoisonCache: an iters= budget silently caps fix
// groups, so a capped request can succeed with an under-optimized
// (saturated) program. It must be cached under its own key — never under
// the budget-free key, where it would be served to every later requester
// of the full compile (the cache-poisoning regression).
func TestItersBudgetDoesNotPoisonCache(t *testing.T) {
	_, c := startServer(t, Config{})

	capped, cappedArt, err := c.Compile(&driver.Request{Source: fibSrc, Budget: "iters=1"})
	if err != nil {
		t.Fatalf("iters=1 compile: %v", err)
	}
	if capped.Cache != "miss" {
		t.Errorf("capped compile cache = %q, want miss", capped.Cache)
	}
	if got, _, err := driver.Exec(cappedArt.Target, cappedArt.Program, cappedArt.Wasm, nil, 0, 10); err != nil || got != 55 {
		t.Fatalf("capped artifact: fib(10) = %d err=%v, want 55", got, err)
	}

	// The budget-free request must compile, not be served the capped
	// artifact from cache.
	full, fullArt, err := c.Compile(&driver.Request{Source: fibSrc})
	if err != nil {
		t.Fatalf("unbudgeted compile: %v", err)
	}
	if full.Key == capped.Key {
		t.Errorf("iters=1 and unbudgeted requests share key %s", full.Key)
	}
	if full.Cache != "miss" {
		t.Errorf("unbudgeted compile after capped one: cache = %q, want miss (served the capped artifact?)", full.Cache)
	}
	if got, _, err := driver.Exec(fullArt.Target, fullArt.Program, fullArt.Wasm, nil, 0, 10); err != nil || got != 55 {
		t.Fatalf("full artifact: fib(10) = %d err=%v, want 55", got, err)
	}

	// Each keeps its own warm entry.
	for _, req := range []*driver.Request{
		{Source: fibSrc, Budget: "iters=1"},
		{Source: fibSrc},
	} {
		warm, _, err := c.Compile(req)
		if err != nil {
			t.Fatalf("warm %+v: %v", req, err)
		}
		if warm.Cache != "memory" {
			t.Errorf("warm %+v: cache = %q, want memory", req, warm.Cache)
		}
	}
	// An iters budget equal to the pipeline default is the same
	// compilation as no budget and shares its warm entry.
	same, _, err := c.Compile(&driver.Request{Source: fibSrc, Budget: "iters=32"})
	if err != nil {
		t.Fatal(err)
	}
	if same.Key != full.Key || same.Cache != "memory" {
		t.Errorf("iters=32 keyed to %s cache=%q, want the default key %s from memory", same.Key, same.Cache, full.Key)
	}
}

// TestDegradedNotCached: a degrade-policy request that loses a pass
// returns a valid program marked degraded, and the artifact is never
// cached — the healthy key must not serve a degraded program.
func TestDegradedNotCached(t *testing.T) {
	_, c := startServer(t, Config{})
	req := &driver.Request{Source: fibSrc, Spec: faultySpec, OnFailure: "degrade"}

	for i := 0; i < 2; i++ {
		resp, art, err := c.Compile(req)
		if err != nil {
			t.Fatalf("degrade request %d: %v", i, err)
		}
		if !resp.Degraded || !art.Degraded {
			t.Fatalf("degrade request %d not marked degraded", i)
		}
		if resp.Cache != "uncached" {
			t.Errorf("degrade request %d cache = %q, want uncached (degraded results must not be cached)", i, resp.Cache)
		}
		if len(resp.FailedPasses) != 1 || resp.FailedPasses[0] != "srv-panic" {
			t.Errorf("failed passes = %v, want [srv-panic]", resp.FailedPasses)
		}
		if got, _, err := driver.Exec(art.Target, art.Program, art.Wasm, nil, 0, 10); err != nil || got != 55 {
			t.Fatalf("degraded program: fib(10) = %d err=%v", got, err)
		}
	}
	m, _ := c.Metrics()
	if m.Degraded != 2 || m.CacheHits != 0 {
		t.Errorf("metrics degraded=%d hits=%d, want 2/0", m.Degraded, m.CacheHits)
	}
}

// TestFlightLeaderAndFollowers: flight mechanics — exactly one leader per
// key at a time, followers wake when the leader is done, the key frees up
// afterwards, and distinct keys never interfere.
func TestFlightLeaderAndFollowers(t *testing.T) {
	f := newFlight()
	leader, done, _ := f.begin("k")
	if !leader {
		t.Fatal("first caller is not the leader")
	}
	l2, _, wait := f.begin("k")
	if l2 {
		t.Fatal("second caller became leader while the first is in flight")
	}
	select {
	case <-wait:
		t.Fatal("follower released before the leader finished")
	default:
	}
	if l3, d3, _ := f.begin("other"); !l3 {
		t.Fatal("distinct key blocked by unrelated flight")
	} else {
		d3()
	}
	done()
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("follower not released after leader done")
	}
	l4, d4, _ := f.begin("k")
	if !l4 {
		t.Fatal("key not reclaimed after the flight ended")
	}
	d4()
}

// TestSingleFlightCoalesces: concurrent identical cache misses share one
// compilation — the slow pass runs once for a storm of five requests, the
// followers are served the leader's cached artifact byte-identically.
func TestSingleFlightCoalesces(t *testing.T) {
	_, c := startServer(t, Config{})
	req := &driver.Request{Source: fibSrc, Spec: "cleanup,pe,srv-slow,cleanup,closure"}

	const followers = 4
	var wg sync.WaitGroup
	results := make([]*CompileResponse, 1+followers)
	errs := make([]error, 1+followers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, errs[0] = c.Compile(req)
	}()
	// Let the leader reach the pipeline (it sleeps 300ms inside), then
	// storm it with identical requests.
	time.Sleep(100 * time.Millisecond)
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Compile(req)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		if results[i].Key != results[0].Key {
			t.Errorf("request %d keyed to %s, want %s", i, results[i].Key, results[0].Key)
		}
		if !bytes.Equal(results[i].Artifact, results[0].Artifact) {
			t.Errorf("request %d artifact differs from the leader's", i)
		}
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Passes["srv-slow"].Runs; got != 1 {
		t.Errorf("srv-slow ran %d times across %d identical requests, want 1", got, 1+followers)
	}
	if m.OK != 1+followers || m.CacheHits != followers {
		t.Errorf("metrics ok=%d hits=%d, want %d/%d", m.OK, m.CacheHits, 1+followers, followers)
	}
	if m.Coalesced == 0 {
		t.Error("no request reported as coalesced")
	}
}

// TestDiskCacheSurvivesRestart: with a cache dir, a second daemon instance
// serves the first one's artifact from disk without recompiling.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := &driver.Request{Source: fibSrc}

	srv1 := New(Config{CacheDir: dir})
	w := httptest.NewRecorder()
	srv1.Handler().ServeHTTP(w, compilePost(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("first compile: HTTP %d: %s", w.Code, w.Body.String())
	}

	srv2 := New(Config{CacheDir: dir})
	w2 := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(w2, compilePost(t, req))
	if w2.Code != http.StatusOK {
		t.Fatalf("second compile: HTTP %d", w2.Code)
	}
	var resp CompileResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "disk" {
		t.Errorf("restarted daemon served %q, want disk", resp.Cache)
	}
	if _, err := driver.DecodeArtifact(resp.Artifact); err != nil {
		t.Errorf("disk artifact undecodable: %v", err)
	}
}

// TestLRUEviction: the oldest entry falls out when capacity is exceeded.
func TestLRUEviction(t *testing.T) {
	c := NewCache(2, "")
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if data, _ := c.Get("a"); data == nil { // refresh a; b is now LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", []byte("3"))
	if data, _ := c.Get("b"); data != nil {
		t.Error("b survived eviction")
	}
	if data, _ := c.Get("a"); data == nil {
		t.Error("recently-used a was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats evictions=%d entries=%d, want 1/2", st.Evictions, st.Entries)
	}
}

// TestGracefulDrain: Shutdown waits for an in-flight compile to finish
// instead of killing it, and new connections are refused afterwards.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c := &Client{Addr: l.Addr().String()}

	var wg sync.WaitGroup
	var resp *CompileResponse
	var compileErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _, compileErr = c.Compile(&driver.Request{Source: fibSrc})
	}()
	// Give the request time to reach the handler, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	wg.Wait()
	// The in-flight request either completed (drained) or was sent before
	// the handler saw it and the connection was refused — but it must not
	// be a half-written response.
	if compileErr == nil && resp.Cache == "" {
		t.Error("drained request returned an incomplete response")
	}
	if _, _, err := c.Compile(&driver.Request{Source: fibSrc}); err == nil {
		t.Error("daemon still accepting requests after Shutdown")
	}
}
