GO ?= go

.PHONY: all build test race vet fmt ci fuzz-smoke fuzz crashers loadtest modules wasm chaos bench bench-diff bench-full bench-passes tables perfbench-check loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also re-runs the pass-manager, transform and driver packages with four
# analysis workers forced, so the parallel scope scheduler is exercised under
# the race detector even on single-core hosts (the transform tests run
# mem2reg through the pass manager).
race:
	$(GO) test -race ./...
	THORIN_JOBS=4 $(GO) test -race ./internal/pm/... ./internal/transform/... ./internal/driver/...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci ends by failing if any step rewrote a committed file.
ci: fmt vet build race modules wasm fuzz-smoke fuzz crashers loadtest chaos bench bench-diff perfbench-check
	git diff --exit-code

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
# diffArms (TestCrashers), explicit module validation, driver.Exec refusing
# modules that do not validate, and a CLI round trip through -target=wasm,
# plus the VM and wasm engine tests (zeroed frames, allocation-free calls,
# reset after a trap, the exact 20,000-frame call limit, every invalid
# module refused by Validate and NewInstance alike, and the register code
# NewInstance translates matching a one-instruction-at-a-time reference
# interpreter at every fuel budget). Last, thorinc -run of an array of
# 2^62 elements on both targets must fail with "out of memory", never
# with a Go panic.
wasm:
	$(GO) test -run 'TestWasm|TestCrashers' -count=1 ./internal/driver
	$(GO) test -count=1 ./internal/wasm ./internal/vm
	$(GO) run ./cmd/thorinc -target=wasm -run examples/fib.imp 10 | grep -qx 'result: 55'
	for t in vm wasm; do \
		out="$$($(GO) run ./cmd/thorinc -target=$$t -run cmd/thorinc/testdata/hugearray.imp 4611686018427387904 2>&1)"; \
		if ! echo "$$out" | grep -q 'out of memory' || echo "$$out" | grep -q 'panic:'; then \
			echo "$$out"; exit 1; \
		fi; \
	done

# fuzz-smoke gives the integer-fold fuzzer (seeded with the signed-overflow
# and division edge cases), the textual-IR parser fuzzer (seeded with a
# world holding every primop kind), the VM program fuzzer and the wasm
# execution fuzzer a short budget each; they fail fast on a fold panic, a
# parser panic, a dump that does not parse back to a fixed point, a VM
# program that passes validation yet panics, miscounts its step budget or
# runs differently with every jump's copy staged, or a generated wasm
# module (i64 locals, division edge cases, local.tee and local.set hazards,
# blocks, loops and ifs with 0 or 1 results, br, br_if, return, calls and
# in- and out-of-bounds memory) on which the register engine and the
# reference interpreter disagree at a budget drawn from the input. The VM
# fuzzer's array.new sizes are small (below 2^12) or above
# vm.MaxArrayLen, which must fail with out of memory.
# -fuzzminimizetime=1s: Go's fuzzer minimizes every input that finds new
# coverage for up to 60 s by default, and its execs counter leaves those
# runs out, so with a warm fuzz cache a 10 s smoke can spend its whole
# window minimizing one input (execs frozen, run still PASS). Smoke runs
# want breadth; `make fuzz` keeps the default because its crashers are
# meant to be minimized.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFoldArith -fuzztime=10s -fuzzminimizetime=1s ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzParseWorld -fuzztime=10s -fuzzminimizetime=1s ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzVMProgram -fuzztime=10s -fuzzminimizetime=1s ./internal/vm
	$(GO) test -run='^$$' -fuzz=FuzzWasmExec -fuzztime=10s -fuzzminimizetime=1s ./internal/wasm

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
# ephemeral port serves concurrent cold+warm requests, single-module edits
# of a shared-import module set, and a shed/retry storm; the tests assert
# that every warm request hit the content-addressed cache, that one edit
# recompiles exactly one module, that every stormed request succeeds, that
# the daemon's hit/miss/OK/shed/retry counters reconcile exactly with what
# the clients saw, and that shutdown drains cleanly.
loadtest:
	$(GO) test -run 'TestLoadTestSmoke|TestModLoadSmoke|TestOverloadSmoke' -count=1 ./internal/server

# chaos is the deterministic fault-injection gate: the seeded chaos suite
# (injected disk/pass/transport faults against a live daemon; asserts the
# daemon survives, corrupt artifacts are never served, every counter
# reconciles exactly with the injected-fault counts, and surviving results
# are byte-identical to a fault-free run), plus a race-detector smoke of
# the storm. Override the seed with THORIN_CHAOS_SEED=N.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/server
	$(GO) test -race -run 'TestChaosStorm' -count=1 ./internal/server

# bench is the benchmark smoke gate: one iteration of every throughput
# benchmark, which catches benchmarks that crash or regress into errors.
bench:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./internal/bench

# bench-diff is the wall-clock regression gate: a same-host A/B of the
# Optimize benchmarks and the ExecVM/ExecWasm execution benchmarks, BASE
# against the working tree in 10 alternating pairs; it fails if any median
# ns/op is more than 10% over BASE's, and skips a benchmark BASE lacks (see
# scripts/bench-diff.sh). Deterministic counts (scope builds, skipped
# runs, VM instructions, wasm fuel) are exact go tests in internal/bench.
BASE ?= HEAD~1
bench-diff:
	sh scripts/bench-diff.sh $(BASE)

# bench-full runs the wall-clock compile-time benchmarks of the evaluation
# (Tables 4 and 5); the deterministic tables are pinned by TestPaperTables.
bench-full:
	$(GO) test -bench=. -benchmem -run='^$$'

# bench-passes records the per-pass compile-time breakdown only.
bench-passes:
	$(GO) test -bench=BenchmarkPassTimings -run='^$$'

# loc prints the Go line counts of the root module, tracked files and new
# ones not yet ignored alike, leaving out perfbench/ (a separate module)
# and files deleted from the working tree: non-test lines, then _test.go
# lines. Each change states its net non-test delta from these two numbers.
loc:
	@files="$$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '^perfbench/' | while read -r f; do [ -f "$$f" ] && echo "$$f"; done)"; \
	echo "non-test $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"

# tables prints every table, figure and ablation of EXPERIMENTS.md at full
# size (a few seconds).
tables:
	$(GO) run ./cmd/thorin-bench -all
