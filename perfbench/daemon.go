package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/fuzzgen"
	"thorin/internal/impala"
	"thorin/internal/server"
)

const (
	daemonClients = 2
	// daemonCacheEntries holds the warm set (40 whole programs plus the
	// module set) with room for about a hundred fresh entries, so misses
	// and edits evict old fresh entries within a run while the warm set,
	// touched every few dozen requests, stays resident.
	daemonCacheEntries = 160
	// daemonThinkTime is each client's pause between an answer and its next
	// request. Without it the two clients kept both CPUs saturated, most
	// hits queued behind the other client's compile or the GC, and the
	// median request sat on the edge of that queue, moving 30–50% between
	// runs as host contention came and went. With it the daemon is about
	// half busy and cache reads still run beside compiles and relinks.
	daemonThinkTime = time.Millisecond
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindEdit
)

var kindNames = []string{"hit", "miss", "edit"}

// drawKind picks a request kind: 80% hits, 10% misses, 10% edits.
func drawKind(rng *rand.Rand) reqKind {
	switch rng.Intn(10) {
	case 0:
		return kindMiss
	case 1:
		return kindEdit
	}
	return kindHit
}

func newRequest(t backend.Target) driver.Request {
	two := 2
	return driver.Request{Opt: &two, Schedule: schedule, Target: string(t), Jobs: 1}
}

// warmReq is one warm-set request and the in-process artifact its response
// must equal, compacted as thorind embeds it.
type warmReq struct {
	req  driver.Request
	want []byte
}

// daemon is an in-process thorind on a loopback listener with a
// memory-only cache, plus the in-process references its answers are
// checked against.
type daemon struct {
	srv    *server.Server
	done   chan error
	addr   string
	leaves int
	warm   []warmReq
	// oracle and artifacts are the checked in-process executions and
	// artifacts of the warm set and the base module set.
	oracle    []execution
	artifacts [][]byte
}

// moduleSetInput is the oracle of a bench.GenModuleSet program: main(n)
// sums f_i(n) = n*k_i + i over the leaves, k_i = i+1 plus 100*version for
// the edited leaf. It is computed from the generator's definition, not by
// any compiler.
func moduleSetInput(leaves, edited, version int) *input {
	in := &input{Name: fmt.Sprintf("modules-%d/leaf%d-v%d", leaves, edited, version), N: 4}
	for i := 0; i < leaves; i++ {
		k := int64(i + 1)
		if i == edited {
			k += int64(version) * 100
		}
		in.want += in.N*k + int64(i)
	}
	return in
}

// startDaemon builds the in-process references, starts the daemon and
// fills its cache with the warm set.
func startDaemon(small bool, tr *tracer) (*daemon, error) {
	d := &daemon{leaves: 8}
	if small {
		d.leaves = 4
	}
	inputs, err := suiteInputs(func(name string) int64 { return oracleN[name] })
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, in := range inputs {
		// Some programs' two variants are the same source (fib), which is
		// one cache entry, not two.
		if seen[in.src] {
			continue
		}
		seen[in.src] = true
		for _, t := range targets {
			data, err := compileArtifact(tr, in.src, in.tokens, t, 1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", in.Name, t, err)
			}
			if err := d.addReference(tr, data, in); err != nil {
				return nil, err
			}
			req := newRequest(t)
			req.Source = in.src
			d.warm = append(d.warm, warmReq{req: req, want: mustCompact(data)})
		}
	}
	base := bench.GenModuleSet(d.leaves, -1, 0)
	data, err := newModuleCompiler(backend.VM, 1).compile(tr, base)
	if err != nil {
		return nil, fmt.Errorf("module set: %w", err)
	}
	if err := d.addReference(tr, data, moduleSetInput(d.leaves, -1, 0)); err != nil {
		return nil, err
	}
	req := newRequest(backend.VM)
	req.Sources = base
	d.warm = append(d.warm, warmReq{req: req, want: mustCompact(data)})

	d.srv = server.New(server.Config{CacheEntries: daemonCacheEntries, MaxInFlight: 2, DefaultJobs: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.done = make(chan error, 1)
	go func() { d.done <- d.srv.Serve(ln) }()

	c, closeClient := d.newClient()
	defer closeClient()
	for _, w := range d.warm {
		resp, _, err := c.Compile(&w.req)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-fill: %w", err)
		}
		if resp.Cache != "miss" || !bytes.Equal(resp.Artifact, w.want) {
			d.stop()
			return nil, fmt.Errorf("warm-fill: served %q, artifact equal to in-process: %v", resp.Cache, bytes.Equal(resp.Artifact, w.want))
		}
	}
	// The module-set entry is only a warm-up: edits never request it again.
	d.warm = d.warm[:len(d.warm)-1]
	return d, nil
}

func (d *daemon) addReference(tr *tracer, data []byte, in *input) error {
	ex, err := execArtifact(tr, data, in)
	if err != nil {
		return err
	}
	d.oracle = append(d.oracle, ex)
	d.artifacts = append(d.artifacts, data)
	return nil
}

// mustCompact renders an encoded artifact the way thorind embeds it in a
// response body, so the two can be compared byte for byte.
func mustCompact(data []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		panic(fmt.Sprintf("artifact is not JSON: %v", err))
	}
	return buf.Bytes()
}

// newClient returns a non-retrying client with its own connection pool and
// the function that releases the pool's connections.
func (d *daemon) newClient() (*server.Client, func()) {
	tp := &http.Transport{MaxIdleConnsPerHost: 2}
	return &server.Client{Addr: d.addr, HTTP: &http.Client{Transport: tp, Timeout: time.Minute}}, tp.CloseIdleConnections
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

// freshSources mints sources no request of the run has used: fuzzgen
// programs for misses and leaf versions for edits. Both clients share it.
type freshSources struct {
	mu      sync.Mutex
	seed    int64
	seen    map[string]bool
	version int
}

func newFreshSources(runSeed int64) *freshSources {
	return &freshSources{seed: 1_000_000 * (runSeed + 1), seen: map[string]bool{}}
}

func (f *freshSources) program() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		f.seed++
		gen := fuzzgen.Program
		if f.seed%2 == 1 {
			gen = fuzzgen.MemoryProgram
		}
		if src := gen(f.seed); !f.seen[src] {
			f.seen[src] = true
			return src
		}
	}
}

func (f *freshSources) nextVersion() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.version++
	return f.version
}

type sample struct {
	kind      reqKind
	ms        float64
	traced    bool
	warm      bool // sent during the untimed warm-up
	ok        bool
	compileNs time.Duration
}

// pending is a miss or edit response whose artifact is checked against an
// in-process compile after the window.
type pending struct {
	kind    reqKind
	req     driver.Request
	leaf    int
	version int
	got     []byte
}

type clientResult struct {
	samples    []sample
	pend       []pending
	attempted  int
	ok         int
	hits       int
	failed     int
	modules    int
	moduleHits int
}

// runClient is one closed-loop client: it sends its next request only
// after the previous answer arrived. Hits cycle through seeded shuffles of
// the warm set, so every warm entry is requested every few dozen requests.
// Requests sent before warmEnd are checked and counted like any other but
// not timed.
func (d *daemon) runClient(rng *rand.Rand, warmEnd, deadline time.Time, fresh *freshSources, tr *tracer) clientResult {
	var r clientResult
	c, closeClient := d.newClient()
	defer closeClient()
	order := rng.Perm(len(d.warm))
	pos := 0
	for i := 0; time.Now().Before(deadline); i++ {
		warm := time.Now().Before(warmEnd)
		kind := drawKind(rng)
		var p pending
		var w warmReq
		switch kind {
		case kindHit:
			if pos == len(order) {
				order, pos = rng.Perm(len(d.warm)), 0
			}
			w = d.warm[order[pos]]
			pos++
			p.req = w.req
		case kindMiss:
			p.req = newRequest(targets[rng.Intn(len(targets))])
			p.req.Source = fresh.program()
		case kindEdit:
			p.leaf, p.version = rng.Intn(d.leaves), fresh.nextVersion()
			p.req = newRequest(backend.VM)
			p.req.Sources = bench.GenModuleSet(d.leaves, p.leaf, p.version)
		}
		traced := tr != nil && i%2 == 0
		root, call := -1, -1
		if traced {
			root = tr.beginOp("op")
			call = tr.begin("client.compile")
		}
		t0 := time.Now()
		resp, _, err := c.Compile(&p.req)
		dur := time.Since(t0)
		if traced {
			tr.end(call)
			tr.endOp(root)
		}
		r.attempted++
		s := sample{kind: kind, ms: ms(dur), traced: traced, warm: warm}
		if err == nil {
			r.ok++
			s.ok = true
			if resp.Cache == "memory" || resp.Cache == "disk" {
				r.hits++
			}
			s.compileNs = resp.CompileNs
			err = d.checkResponse(kind, resp, w, &p, &r)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", kindNames[kind], err)
		} else if kind != kindHit {
			p.kind = kind
			p.got = resp.Artifact
			r.pend = append(r.pend, p)
		}
		r.samples = append(r.samples, s)
		time.Sleep(daemonThinkTime)
	}
	return r
}

// checkResponse checks what can be checked at once: the cache tier, a hit's
// bytes, and an edit's per-module tiers (exactly the edited leaf missed).
func (d *daemon) checkResponse(kind reqKind, resp *server.CompileResponse, w warmReq, p *pending, r *clientResult) error {
	switch kind {
	case kindHit:
		if resp.Cache != "memory" {
			return fmt.Errorf("warm request served from %q", resp.Cache)
		}
		if !bytes.Equal(resp.Artifact, w.want) {
			return fmt.Errorf("hit artifact differs from the in-process artifact")
		}
	case kindMiss:
		if resp.Cache != "miss" {
			return fmt.Errorf("fresh source served from %q", resp.Cache)
		}
	case kindEdit:
		if resp.Cache != "miss" {
			return fmt.Errorf("edited module set served from %q", resp.Cache)
		}
		if len(resp.Modules) != d.leaves+2 {
			return fmt.Errorf("edit reported %d modules, want %d", len(resp.Modules), d.leaves+2)
		}
		for _, m := range resp.Modules {
			r.modules++
			edited := m.Name == fmt.Sprintf("leaf%d", p.leaf)
			switch {
			case m.Cache == "memory" && !edited:
				r.moduleHits++
			case m.Cache == "miss" && edited:
			default:
				return fmt.Errorf("module %s served from %q", m.Name, m.Cache)
			}
		}
	}
	return nil
}

// verify compiles each miss and edit in process, checks the daemon's
// artifact byte for byte against it, and runs every edited program against
// its oracle. It returns the number of failed requests.
func (d *daemon) verify(tr *tracer, mc *moduleCompiler, pend []pending) int {
	failed := 0
	for _, p := range pend {
		var data []byte
		var err error
		if p.kind == kindMiss {
			var toks []impala.Token
			if toks, err = impala.Lex(p.req.Source); err == nil {
				data, err = compileArtifact(tr, p.req.Source, len(toks), backend.Target(p.req.Target), 1)
			}
		} else {
			if data, err = mc.compile(tr, p.req.Sources); err == nil {
				_, err = execArtifact(tr, data, moduleSetInput(d.leaves, p.leaf, p.version))
			}
		}
		if err == nil && !bytes.Equal(mustCompact(data), p.got) {
			err = fmt.Errorf("daemon artifact differs from the in-process artifact")
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s request failed verification: %v\n", kindNames[p.kind], err)
		}
	}
	return failed
}
