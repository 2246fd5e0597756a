package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"thorin/internal/driver"
	"thorin/internal/faultinject"
	"thorin/internal/pm"
)

// CacheKey derives the content address of a compilation: a SHA-256 digest
// over (compiler version, source bytes, resolved pipeline spec, schedule
// mode, resolved backend target, fixpoint iteration bound). Each field is
// length-framed so no two
// distinct field tuples can collide by concatenation, and the digest
// depends on nothing else — in particular not on -jobs or -incremental,
// which are execution knobs with a byte-identical-output guarantee, and
// not on the failure policy or the nodes budget, which can only fail
// a compile, never change a successful one's output (degraded results are
// never cached; see Cache).
//
// fixIters is the exception among the budget knobs: an iters= budget caps
// every fix(...) group, so a capped run can succeed with a merely
// saturated, under-optimized program — or iterate past the default bound
// to a deeper fixpoint. Callers pass the *effective* bound (see
// effectiveFixIters) so an explicit iters equal to the pipeline default
// shares the default key, and every other bound gets its own.
//
// Invalidation is entirely by key: a compiler change bumps driver.Version
// and thereby every key at once (the wazero CompilationCache discipline);
// a source or spec change produces a new key and the old entry ages out of
// the LRU. Cached artifacts are immutable and never updated in place.
func CacheKey(version, source, spec, schedule, target string, fixIters int) string {
	h := sha256.New()
	var frame [8]byte
	for _, field := range []string{version, source, spec, schedule, target, strconv.Itoa(fixIters)} {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(field)))
		h.Write(frame[:])
		h.Write([]byte(field))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModuleCacheKey derives the content address of one module compilation in
// a separate-compilation request: a digest over (marker, compiler version,
// the module's own source, the per-module pipeline spec, the fixpoint
// bound, and the module's resolved import descriptors). The descriptors —
// one "name from module as sig" string per import edge, sorted, as
// produced by link.ResolveImports — stand in for the structural identity
// of everything the module links against: changing an exporter's
// signature or re-routing a re-export chain re-keys every importer, while
// editing only a dependency's function bodies leaves the importer's key
// (and its cached artifact) untouched, so a warm cache relinks without
// recompiling it. The leading marker field domain-separates module keys
// from CacheKey's whole-program keys. The schedule mode does not enter
// the key: module artifacts carry textual IR, not bytecode, and primop
// scheduling happens after linking. The backend target does enter it —
// per-module IR is in fact target-independent, but keying uniformly with
// CacheKey keeps every artifact a request can produce under one target
// discipline, at the cost of duplicate module entries only when the same
// sources are actually compiled for both targets.
func ModuleCacheKey(version, source, moduleSpec, target string, fixIters int, resolvedImports []string) string {
	h := sha256.New()
	var frame [8]byte
	fields := make([]string, 0, 6+len(resolvedImports))
	fields = append(fields, "module-artifact", version, source, moduleSpec, target, strconv.Itoa(fixIters))
	fields = append(fields, resolvedImports...)
	for _, field := range fields {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(field)))
		h.Write(frame[:])
		h.Write([]byte(field))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MultiSourceKeyInput flattens a multi-module request's sources into the
// single source field of the whole-program CacheKey: a domain marker
// carrying the link mode, followed by each module source length-framed, in
// sorted order. Sorting makes the final key input-order independent,
// matching the linker's own order independence; framing prevents
// concatenation collisions between different source splits.
func MultiSourceKeyInput(sources []string, linkMode string) string {
	srt := append([]string(nil), sources...)
	sort.Strings(srt)
	var b strings.Builder
	fmt.Fprintf(&b, "modules:link=%s", linkMode)
	for _, s := range srt {
		fmt.Fprintf(&b, "\x00%d\x00%s", len(s), s)
	}
	return b.String()
}

// effectiveFixIters normalizes a budget's fixpoint bound for cache keying.
// The pipeline runs every fix group to pm.DefaultMaxFixIters when no iters
// budget is set, so "no budget" and an explicit iters= of exactly that
// default are the same compilation and must share a key; any other bound
// changes which program a successful compile produces and must not collide.
func effectiveFixIters(b pm.Budget) int {
	if b.MaxFixpointIters > 0 {
		return b.MaxFixpointIters
	}
	return pm.DefaultMaxFixIters
}

// Fault-injection points the cache consults when an Injector is attached
// (see SetInjector). Points with errors fail the corresponding disk
// operation; decision-only points (nil Rule.Err) alter its behavior.
const (
	// FaultDiskWrite fails the temp-file write of a disk Put (ENOSPC-style).
	FaultDiskWrite = "cache.disk.write"
	// FaultDiskTorn tears a disk Put: only half the artifact bytes reach
	// the final file (decision-only). Read-time validation must catch it.
	FaultDiskTorn = "cache.disk.torn"
	// FaultDiskRead fails a disk Get's read.
	FaultDiskRead = "cache.disk.read"
	// FaultDiskRename fails the temp→final rename of a disk Put.
	FaultDiskRename = "cache.disk.rename"
	// FaultDiskAbandon abandons a disk Put after the temp write
	// (decision-only): the temp file is left behind unrenamed, simulating a
	// crash mid-write. Startup cleanup collects such leftovers.
	FaultDiskAbandon = "cache.disk.abandon"
)

// defaultDiskProbeInterval is how often a disk-degraded cache retries the
// disk tier (see probeDiskLocked).
const defaultDiskProbeInterval = 5 * time.Second

// Cache is the content-addressed artifact store: an in-memory LRU over
// encoded artifact bytes, optionally backed by an on-disk directory that
// survives daemon restarts. Entries are immutable once stored; the disk
// tier is written through on Put and promoted into memory on Get.
//
// The disk tier is self-healing: any disk I/O failure (write, read,
// rename) degrades the cache to memory-only — artifacts keep being served,
// restarts just lose persistence — and a periodic recovery probe re-enables
// the tier once the disk answers again. Degradation and recovery are
// counted in Stats and surfaced by /healthz.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	dir      string // "" disables the disk tier

	inj *faultinject.Injector // nil in production: every Fail answers no

	// Disk-tier health: diskDown set on the first I/O fault, cleared by a
	// successful probe. lastProbe rate-limits probing to probeEvery.
	diskDown   bool
	probeEvery time.Duration
	lastProbe  time.Time

	hits, misses, diskHits, evictions, diskCorrupt int64
	diskFaults, diskRecoveries, tempCleaned        int64
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache builds a cache holding at most capacity in-memory entries
// (minimum 1). dir, when non-empty, enables the on-disk tier; it is
// created on first use. Leftover temp files from torn temp+rename writes
// of a previous (crashed) daemon are removed up front — they are
// unreachable garbage that would otherwise accumulate forever.
func NewCache(capacity int, dir string) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity:   capacity,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		dir:        dir,
		probeEvery: defaultDiskProbeInterval,
	}
	if dir != "" {
		if stale, err := filepath.Glob(filepath.Join(dir, ".tmp-*")); err == nil {
			for _, f := range stale {
				if os.Remove(f) == nil {
					c.tempCleaned++
				}
			}
		}
	}
	return c
}

// SetInjector attaches a fault-injection plan to the disk tier (tests
// only; nil detaches). See the Fault* point constants.
func (c *Cache) SetInjector(inj *faultinject.Injector) {
	c.mu.Lock()
	c.inj = inj
	c.mu.Unlock()
}

// SetDiskProbeInterval overrides how often a degraded disk tier is
// re-probed (tests use 0 to probe on every operation).
func (c *Cache) SetDiskProbeInterval(d time.Duration) {
	c.mu.Lock()
	c.probeEvery = d
	c.mu.Unlock()
}

// injector snapshots the attached injector under the lock.
func (c *Cache) injector() *faultinject.Injector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj
}

// diskFault records one disk I/O failure and degrades the tier to
// memory-only until a probe succeeds.
func (c *Cache) diskFault() {
	c.mu.Lock()
	c.diskFaults++
	c.diskDown = true
	c.mu.Unlock()
}

// diskAvailable reports whether the disk tier should be used right now.
// While degraded it runs the recovery probe at most once per probeEvery:
// write, read back and remove a probe file (through the injector, so a
// still-armed fault plan keeps the tier down deterministically). A
// successful probe re-enables the tier.
func (c *Cache) diskAvailable() bool {
	c.mu.Lock()
	if c.dir == "" {
		c.mu.Unlock()
		return false
	}
	if !c.diskDown {
		c.mu.Unlock()
		return true
	}
	if time.Since(c.lastProbe) < c.probeEvery {
		c.mu.Unlock()
		return false
	}
	c.lastProbe = time.Now()
	inj := c.inj
	dir := c.dir
	c.mu.Unlock()

	probe := filepath.Join(dir, ".thorind-probe")
	ok := func() bool {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return false
		}
		if err := inj.Err(FaultDiskWrite); err != nil {
			return false
		}
		if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
			return false
		}
		if err := inj.Err(FaultDiskRead); err != nil {
			return false
		}
		if _, err := os.ReadFile(probe); err != nil {
			return false
		}
		return true
	}()
	os.Remove(probe)

	c.mu.Lock()
	defer c.mu.Unlock()
	if ok && c.diskDown {
		c.diskDown = false
		c.diskRecoveries++
	}
	return ok
}

// Get returns the artifact bytes stored under key. tier reports where the
// entry was found: "memory", "disk", or "" on a miss. Disk finds are
// promoted into the in-memory LRU.
func (c *Cache) Get(key string) (data []byte, tier string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		data = el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, "memory"
	}
	c.mu.Unlock()

	if c.diskAvailable() {
		data, err := os.ReadFile(c.diskPath(key))
		if err == nil {
			err = c.injector().Err(FaultDiskRead)
		}
		switch {
		case err == nil:
			// Never promote unvalidated bytes: a truncated write or a
			// foreign file under the cache dir would otherwise enter the
			// LRU and be re-served on every future hit. A corrupt file is
			// deleted (the slot recompiles and rewrites it) and the Get
			// counts as a miss.
			if validArtifact(data) {
				c.mu.Lock()
				c.diskHits++
				c.insertLocked(key, data)
				c.mu.Unlock()
				return data, "disk"
			}
			os.Remove(c.diskPath(key))
			c.mu.Lock()
			c.diskCorrupt++
			c.misses++
			c.mu.Unlock()
			return nil, ""
		case errors.Is(err, fs.ErrNotExist):
			// An absent file is an ordinary miss, not a disk fault.
		default:
			// An I/O error (bad sector, injected read fault) degrades the
			// tier: the Get falls through to a miss and the slot recompiles,
			// which is always safe for a content-addressed store.
			c.diskFault()
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, ""
}

// validArtifact reports whether data decodes as an artifact this compiler
// build can serve: a whole-program driver.Artifact or a per-module
// artifact. Only disk reads are validated — in-memory entries were
// validated (or produced) on the way in.
func validArtifact(data []byte) bool {
	if _, err := driver.DecodeArtifact(data); err == nil {
		return true
	}
	if _, err := driver.DecodeModuleArtifact(data); err == nil {
		return true
	}
	return false
}

// Put stores the artifact bytes under key in memory and, when the disk
// tier is enabled and healthy, on disk (atomically, via rename). A disk
// failure is reported and degrades the tier to memory-only, but never
// affects the in-memory store: the artifact is still served, persistence
// is what is lost.
func (c *Cache) Put(key string, data []byte) error {
	c.mu.Lock()
	c.insertLocked(key, data)
	c.mu.Unlock()

	if !c.diskAvailable() {
		return nil
	}
	if err := c.putDisk(key, data); err != nil {
		c.diskFault()
		return err
	}
	return nil
}

// putDisk is the disk half of Put: temp write + rename, with the
// fault-injection points threaded through each step.
func (c *Cache) putDisk(key string, data []byte) error {
	inj := c.injector()
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("server: cache dir: %w", err)
	}
	path := c.diskPath(key)
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("server: cache write: %w", err)
	}
	if err := inj.Err(FaultDiskWrite); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache write: %w", err)
	}
	if _, torn := inj.Fail(FaultDiskTorn); torn {
		// A torn write: half the bytes land and the file is still renamed
		// into place, as if the machine lost power after the rename was
		// queued. Read-time validation must refuse to serve it.
		data = data[:len(data)/2]
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache write: %w", err)
	}
	if _, abandon := inj.Fail(FaultDiskAbandon); abandon {
		// Simulated crash between write and rename: the temp file stays
		// behind for the next daemon's startup cleanup to collect. Not a
		// fault from the caller's point of view — the artifact simply never
		// persisted.
		return nil
	}
	if err := inj.Err(FaultDiskRename); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache write: %w", err)
	}
	return nil
}

// insertLocked adds or refreshes an in-memory entry and evicts the LRU
// tail past capacity. Callers hold c.mu.
func (c *Cache) insertLocked(key string, data []byte) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, data: data})
	for c.order.Len() > c.capacity {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// diskPath maps a key to its artifact file. Keys are hex digests, so the
// name is filesystem-safe by construction.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".artifact.json")
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	DiskHits  int64 `json:"disk_hits,omitempty"`
	Evictions int64 `json:"evictions,omitempty"`
	// DiskCorrupt counts disk files that failed artifact validation on
	// promotion; each was deleted and its Get served as a miss.
	DiskCorrupt int64 `json:"disk_corrupt,omitempty"`
	// DiskFaults counts disk I/O failures; each degraded the tier to
	// memory-only until a recovery probe succeeded.
	DiskFaults int64 `json:"disk_faults,omitempty"`
	// DiskRecoveries counts successful recovery probes that re-enabled a
	// degraded disk tier.
	DiskRecoveries int64 `json:"disk_recoveries,omitempty"`
	// DiskDegraded reports whether the disk tier is currently down
	// (memory-only operation).
	DiskDegraded bool `json:"disk_degraded,omitempty"`
	// TempCleaned counts leftover temp files removed at startup.
	TempCleaned int64 `json:"temp_cleaned,omitempty"`
}

// Stats snapshots the cache counters. A Get that falls through to the
// disk tier counts as a disk hit, not a miss.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:        c.order.Len(),
		Capacity:       c.capacity,
		Hits:           c.hits,
		Misses:         c.misses,
		DiskHits:       c.diskHits,
		Evictions:      c.evictions,
		DiskCorrupt:    c.diskCorrupt,
		DiskFaults:     c.diskFaults,
		DiskRecoveries: c.diskRecoveries,
		DiskDegraded:   c.diskDown,
		TempCleaned:    c.tempCleaned,
	}
}

// DiskDegraded reports whether the disk tier is currently degraded to
// memory-only operation (healthz surfaces this).
func (c *Cache) DiskDegraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskDown
}
