package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"thorin/internal/bench"
	"thorin/internal/driver"
)

// The load smoke tests are the `make loadtest` gate: an in-process daemon
// on an ephemeral port serves concurrent traffic, every counter it keeps
// must reconcile exactly with what the clients sent and saw, and
// startServer's cleanup fails the test unless shutdown drains cleanly.

// TestLoadTestSmoke runs three phases over a corpus of distinct programs:
// a cold sequential sweep (every key misses), rounds warm sequential
// sweeps under the same conditions (every key hits, and the cache must
// win), and a storm of concurrent clients sweeping the corpus rounds
// times each (every request still hits).
func TestLoadTestSmoke(t *testing.T) {
	const clients, rounds = 4, 2
	srcs := []string{bench.GenManyFns(16)}
	for _, p := range bench.Suite[:3] {
		srcs = append(srcs, p.Functional)
	}
	_, c := startServer(t, Config{})

	var coldNs, warmNs int64
	for _, src := range srcs {
		start := time.Now()
		resp, _, err := c.Compile(&driver.Request{Source: src})
		coldNs += time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		if resp.Cache != "miss" || len(resp.Artifact) == 0 {
			t.Fatalf("cold request served cache=%q with %d artifact bytes, want a miss", resp.Cache, len(resp.Artifact))
		}
	}

	// The cold phase leaves the heap full of dead compilation worlds whose
	// collection would otherwise land as pauses inside warm samples, so
	// settle it first, and summarize each program by its median sample.
	runtime.GC()
	warm := make([][]int64, len(srcs))
	for r := 0; r < rounds; r++ {
		for i, src := range srcs {
			start := time.Now()
			resp, _, err := c.Compile(&driver.Request{Source: src})
			warm[i] = append(warm[i], time.Since(start).Nanoseconds())
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if resp.Cache != "memory" && resp.Cache != "disk" {
				t.Fatalf("warm request recompiled (cache=%q)", resp.Cache)
			}
		}
	}
	for _, ns := range warm {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		warmNs += ns[len(ns)/2]
	}
	if warmNs >= coldNs {
		t.Errorf("warm requests not faster than cold: %d ns vs %d ns", warmNs, coldNs)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := &Client{Addr: c.Addr}
			for r := 0; r < rounds; r++ {
				for _, src := range srcs {
					resp, _, err := cc.Compile(&driver.Request{Source: src})
					if err == nil && resp.Cache != "memory" && resp.Cache != "disk" {
						err = fmt.Errorf("recompiled (cache=%q)", resp.Cache)
					}
					if err != nil {
						errs <- fmt.Errorf("storm: %w", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(srcs)); m.Cache.Misses != want {
		t.Errorf("misses=%d, want %d (cold phase only)", m.Cache.Misses, want)
	}
	if want := int64((clients + 1) * rounds * len(srcs)); m.CacheHits != want {
		t.Errorf("hits=%d, want %d (every warm and storm request)", m.CacheHits, want)
	}
	if m.Errors != 0 {
		t.Errorf("daemon recorded %d errors", m.Errors)
	}
}

// TestModLoadSmoke covers the separate-compilation path: a shared-import
// module set builds cold, repeats warm, and each single-leaf edit on the
// warm cache recompiles exactly that leaf's module artifact and hits every
// other module.
func TestModLoadSmoke(t *testing.T) {
	const leaves, edits = 4, 2
	_, c := startServer(t, Config{})

	base := bench.GenModuleSet(leaves, -1, 0)
	resp, _, err := c.Compile(&driver.Request{Sources: base})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if resp.Cache != "miss" || len(resp.Modules) != leaves+2 {
		t.Fatalf("cold served cache=%q with %d modules, want miss with %d", resp.Cache, len(resp.Modules), leaves+2)
	}
	if resp, _, err = c.Compile(&driver.Request{Sources: base}); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if resp.Cache != "memory" {
		t.Fatalf("warm recompiled (cache=%q)", resp.Cache)
	}

	var misses, hits int
	for e := 0; e < edits; e++ {
		resp, _, err := c.Compile(&driver.Request{Sources: bench.GenModuleSet(leaves, e, 1)})
		if err != nil {
			t.Fatalf("edit %d: %v", e, err)
		}
		if resp.Cache != "miss" {
			t.Fatalf("edit %d: whole-program key did not move (cache=%q)", e, resp.Cache)
		}
		for _, m := range resp.Modules {
			if m.Cache != "miss" {
				hits++
				continue
			}
			misses++
			if want := fmt.Sprintf("leaf%d", e); m.Name != want {
				t.Errorf("edit %d recompiled %s, want %s", e, m.Name, want)
			}
		}
	}
	if misses != edits {
		t.Errorf("edit module misses=%d, want %d (one per edit)", misses, edits)
	}
	if want := edits * (leaves + 1); hits != want {
		t.Errorf("edit module hits=%d, want %d", hits, want)
	}
}

// overloadSrc generates the i-th distinct program of the storm corpus: a
// chain of small functions long enough that a cold compile runs tens of
// milliseconds — well past the Go scheduler's preemption quantum, so that
// even on a single-CPU machine concurrent requests genuinely overlap at the
// admission gate — and distinct, so every request is a cold compile (cache
// hits would let the daemon absorb the storm without ever shedding).
func overloadSrc(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fn f0(n: i64) -> i64 { if n < 2 { n + %d } else { f0(n - 1) + f0(n - 2) } }\n", i)
	const chain = 120
	for k := 1; k <= chain; k++ {
		fmt.Fprintf(&b, "fn f%d(n: i64) -> i64 { f%d(n) + %d }\n", k, k-1, k)
	}
	fmt.Fprintf(&b, "fn main(n: i64) -> i64 { f%d(n) }\n", chain)
	return b.String()
}

// TestOverloadSmoke storms a deliberately tiny admission gate with more
// retrying clients than compile slots. The daemon sheds the overflow with
// 429 + Retry-After and clients back off under jitter seeded by their
// index. Every request must eventually succeed, the storm must actually
// shed (zero sheds would mean the gate never saturated and the test proved
// nothing), and the daemon's shed, retry and OK counters must equal what
// the clients observed.
func TestOverloadSmoke(t *testing.T) {
	const clients, perClient = 6, 2
	_, c := startServer(t, Config{MaxInFlight: 2, MaxQueue: 2, QueueWait: 50 * time.Millisecond})

	var (
		mu                      sync.Mutex
		sheds, retries, success int64
	)
	countShed := func(cause error) {
		var re *RemoteError
		if errors.As(cause, &re) && re.Status == http.StatusTooManyRequests {
			sheds++
		}
	}
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cc := &Client{
				Addr:           c.Addr,
				Retries:        16,
				RetryBaseDelay: 10 * time.Millisecond,
				RetryMaxDelay:  200 * time.Millisecond,
				Seed:           int64(ci),
				OnRetry: func(_ int, cause error, _ time.Duration) {
					mu.Lock()
					retries++
					countShed(cause)
					mu.Unlock()
				},
			}
			for j := 0; j < perClient; j++ {
				_, _, err := cc.Compile(&driver.Request{Source: overloadSrc(ci*perClient + j)})
				mu.Lock()
				if err != nil {
					countShed(err)
					t.Errorf("client %d request %d never succeeded: %v", ci, j, err)
				} else {
					success++
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()

	const total = clients * perClient
	if success != total {
		t.Fatalf("%d of %d requests succeeded", success, total)
	}
	if sheds == 0 {
		t.Error("storm produced no sheds: admission gate never saturated")
	}
	if retries < sheds {
		t.Errorf("retries=%d < sheds=%d: a shed mid-budget must be retried", retries, sheds)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Sheds != sheds || m.RetriesObserved != retries || m.OK != total {
		t.Errorf("daemon counted %d sheds, %d retries, %d OK; clients saw %d, %d, %d",
			m.Sheds, m.RetriesObserved, m.OK, sheds, retries, total)
	}
}
