GO ?= go

.PHONY: all build test race vet fmt ci fuzz-smoke fuzz crashers loadtest modules wasm chaos bench bench-diff bench-full bench-passes tables perfbench-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also re-runs the pass-manager and driver packages with four analysis
# workers forced, so the parallel scope scheduler is exercised under the race
# detector even on single-core hosts.
race:
	$(GO) test -race ./...
	THORIN_JOBS=4 $(GO) test -race ./internal/pm/... ./internal/driver/...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt vet build race modules wasm fuzz-smoke fuzz crashers loadtest chaos bench bench-diff perfbench-check

# perfbench-check vets and tests the benchmark in perfbench/. It is a
# separate Go module, so `go build ./...` and `go test ./...` at the root
# never compile it; this target catches driver API changes that break it.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# modules compiles and runs the shipped three-module example (a imports b,
# b imports and re-exports c) through the separate-compilation CLI path in
# both link modes; main(4) must print 34 either way.
modules:
	$(GO) run ./cmd/thorinc -run examples/modules/a.imp examples/modules/b.imp examples/modules/c.imp 4 | grep -qx 'result: 34'
	$(GO) run ./cmd/thorinc -link=mangle -run examples/modules/a.imp examples/modules/b.imp examples/modules/c.imp 4 | grep -qx 'result: 34'

# wasm is the WebAssembly backend gate: every example differentially
# executed against the VM at -O0/-O2 × jobs 1/4 plus multi-module linking
# under both targets, the crasher corpus replayed through the wasm arms of
# diffArms (TestCrashers), explicit module validation, and a CLI round trip
# through -target=wasm, plus the VM and wasm engine tests (zeroed frames,
# allocation-free calls, reset after a trap).
wasm:
	$(GO) test -run 'TestWasm|TestCrashers' -count=1 ./internal/driver
	$(GO) test -count=1 ./internal/wasm ./internal/vm
	$(GO) run ./cmd/thorinc -target=wasm -run examples/fib.imp 10 | grep -qx 'result: 55'

# fuzz-smoke gives the integer-fold fuzzer (seeded with the signed-overflow
# and division edge cases) a short budget; it fails fast on any fold panic.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFoldArith -fuzztime=10s ./internal/ir

# fuzz runs the differential pipeline fuzzer: random well-typed programs,
# reference interpreter as oracle, compiled arms at -O0/-O2 × jobs 1/4.
# Failures are auto-minimized; save the reproducer under
# internal/driver/testdata/crashers/ to turn it into a regression.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/driver

# crashers replays the minimized crasher corpus under the race detector
# with four analysis workers forced.
crashers:
	THORIN_JOBS=4 $(GO) test -race -run TestCrashers ./internal/driver

# loadtest is the compile-server smoke gate: an in-process thorind on an
# ephemeral port serves concurrent cold+warm requests; the test asserts
# that every warm request hit the content-addressed cache, that the
# daemon's hit/miss counters reconcile exactly with the request
# arithmetic, and that shutdown drains cleanly.
loadtest:
	$(GO) test -run 'TestLoadTestSmoke|TestModLoadSmoke|TestOverloadSmoke' -count=1 ./internal/bench

# chaos is the deterministic fault-injection gate: the seeded chaos suite
# (injected disk/pass/transport faults against a live daemon; asserts the
# daemon survives, corrupt artifacts are never served, every counter
# reconciles exactly with the injected-fault counts, and surviving results
# are byte-identical to a fault-free run), plus a race-detector smoke of
# the storm. Override the seed with THORIN_CHAOS_SEED=N.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/server
	$(GO) test -race -run 'TestChaosStorm' -count=1 ./internal/server

# bench is the allocation-regression gate: a single-iteration smoke run of
# every throughput benchmark (catches benchmarks that crash or regress into
# errors), then the fast allocation measurement refreshing BENCH_pr4.json.
# The JSON keeps the frozen pre-optimization baseline and overwrites only
# the current numbers, so the delta stays reviewable in the diff.
bench:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./internal/bench
	$(GO) run ./cmd/thorin-bench -alloc -o BENCH_pr4.json
	$(GO) run ./cmd/thorin-bench -incremental -fast -o BENCH_pr5.json
	$(GO) run ./cmd/thorin-bench -loadtest -o BENCH_pr6.json
	$(GO) run ./cmd/thorin-bench -modload -o BENCH_pr7.json
	$(GO) run ./cmd/thorin-bench -overload -o BENCH_pr8.json
	$(GO) run ./cmd/thorin-bench -memory -fast -o BENCH_pr9.json
	$(GO) run ./cmd/thorin-bench -backends -fast -o BENCH_pr10.json

# bench-diff is the regression gate: re-measure the incremental-vs-full
# fixpoint workload (at the same fast scale the committed report was taken
# at) and fail if any workload's incremental Optimize ns/op regressed by
# more than 10% against BENCH_pr5.json; then re-measure the effect-region
# memory workload and fail if its VM instruction count regressed by more
# than 10% against BENCH_pr9.json (the structural wins — promoted slots,
# hoisted loads, split chains — are hard asserts inside the measurement).
bench-diff:
	$(GO) run ./cmd/thorin-bench -incremental -fast -diff BENCH_pr5.json
	$(GO) run ./cmd/thorin-bench -memory -fast -diff BENCH_pr9.json

# bench-full runs the whole evaluation harness at laptop scale.
bench-full:
	$(GO) test -bench=. -benchmem -run='^$$'

# bench-passes records the per-pass compile-time breakdown only.
bench-passes:
	$(GO) test -bench=BenchmarkPassTimings -run='^$$'

tables:
	$(GO) run ./cmd/thorin-bench -all -fast
