package bench

// Backend comparison for BENCH_pr10.json: every suite program (functional
// variant, fully optimized) is emitted by both registered backends from
// the same optimized world, executed on its own abstract machine, and the
// two runs must agree on the checksum — the same differential discipline
// the wasm test gate enforces, measured instead of asserted. The report
// records what each backend costs: emission time from the shared lowering
// (ns/op over backend.Compile alone), payload size, and the dynamic
// instruction count of the target machine (VM counter vs wasm fuel
// spent). The two machines' instructions are not the same unit — the VM
// executes one register instruction where wasm executes several stack
// ops — so the ratio is reported as context, not gated.

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/backend"
	wasmbackend "thorin/internal/backend/wasm"
	"thorin/internal/driver"
	"thorin/internal/transform"
	"thorin/internal/wasm"
)

// BackendArm records one backend's numbers for one workload.
type BackendArm struct {
	Target string `json:"target"`
	// EmitNsPerOp times backend.Compile alone — lowering, instruction
	// selection and encoding — over the already-optimized world, so the
	// two backends are compared on exactly the work that differs.
	EmitNsPerOp float64 `json:"emit_ns_per_op"`
	// PayloadBytes is the size of the compiled payload: the encoded wasm
	// module for the wasm target, the JSON-encoded program for the vm
	// (its wire form inside an artifact). Different encodings — compare
	// within a target across time, not across targets.
	PayloadBytes int `json:"payload_bytes"`
	// DynInstrs counts instructions the target machine executed: the VM's
	// instruction counter, or wasm fuel spent (one unit per instruction).
	DynInstrs int64 `json:"dyn_instrs"`
	Result    int64 `json:"result"`
}

// BackendWorkload is one suite program measured on both backends.
type BackendWorkload struct {
	Name string     `json:"name"`
	N    int64      `json:"n"`
	VM   BackendArm `json:"vm"`
	Wasm BackendArm `json:"wasm"`
	// WasmInstrRatio is wasm dynamic instructions per vm instruction for
	// this workload — the interpreter-overhead context number.
	WasmInstrRatio float64 `json:"wasm_instr_ratio"`
}

// BackendsReport is the document shape of BENCH_pr10.json.
type BackendsReport struct {
	Note      string            `json:"note"`
	Fast      bool              `json:"fast"`
	Workloads []BackendWorkload `json:"workloads"`
}

// backendsN picks the problem size: the committed report is taken at
// DefaultN; fast mode shrinks the array/iteration workloads so the wasm
// interpreter finishes in CI time.
func backendsN(p *Program, fast bool) int64 {
	if !fast || p.DefaultN <= 100 {
		return p.DefaultN
	}
	return p.DefaultN / 10
}

// measureBackendArm emits the optimized world with one backend, times the
// emission, and executes the payload on its machine.
func measureBackendArm(res *driver.Result, target backend.Target, n int64) (BackendArm, error) {
	arm := BackendArm{Target: string(target)}
	be, err := backend.Lookup(target)
	if err != nil {
		return arm, err
	}
	cfg := backend.Config{Mode: analysis.ScheduleSmart}
	out, err := be.Compile(res.World, "main", cfg)
	if err != nil {
		return arm, fmt.Errorf("%s: emit: %w", target, err)
	}

	switch target {
	case backend.VM:
		js, err := json.Marshal(out.VM)
		if err != nil {
			return arm, err
		}
		arm.PayloadBytes = len(js)
		got, counters, err := driver.ExecSteps(out.VM, io.Discard, 0, n)
		if err != nil {
			return arm, fmt.Errorf("%s: execute: %w", target, err)
		}
		arm.Result = got
		arm.DynInstrs = counters.Instructions
	case backend.Wasm:
		arm.PayloadBytes = len(out.Wasm)
		m, err := wasm.Decode(out.Wasm)
		if err != nil {
			return arm, err
		}
		in, err := wasm.NewInstance(m, wasmbackend.Host(io.Discard))
		if err != nil {
			return arm, err
		}
		const fuel = int64(1) << 40
		in.Fuel = fuel
		vals, err := in.Invoke("main", uint64(n))
		if err != nil {
			return arm, fmt.Errorf("%s: execute: %w", target, err)
		}
		arm.Result = int64(vals[0])
		arm.DynInstrs = fuel - in.Fuel
	}

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := be.Compile(res.World, "main", cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	arm.EmitNsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	return arm, nil
}

// MeasureBackends runs the backend comparison over the whole suite. Result
// parity between the two backends is a hard gate, not a recorded number: a
// disagreement fails the measurement.
func MeasureBackends(fast bool) (BackendsReport, error) {
	rep := BackendsReport{
		Note: "vm vs wasm backend from the shared lowering: emission time, payload size, dynamic instructions; checksums must agree (differential gate)",
		Fast: fast,
	}
	spec := transform.O2
	for i := range Suite {
		p := &Suite[i]
		n := backendsN(p, fast)
		res, err := driver.CompileSpec(p.Functional, spec, analysis.ScheduleSmart, driver.Config{Jobs: 1})
		if err != nil {
			return rep, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		vmArm, err := measureBackendArm(res, backend.VM, n)
		if err != nil {
			return rep, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		wasmArm, err := measureBackendArm(res, backend.Wasm, n)
		if err != nil {
			return rep, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		if vmArm.Result != wasmArm.Result {
			return rep, fmt.Errorf("bench: %s: backends disagree: vm=%d wasm=%d",
				p.Name, vmArm.Result, wasmArm.Result)
		}
		wl := BackendWorkload{Name: p.Name, N: n, VM: vmArm, Wasm: wasmArm}
		if vmArm.DynInstrs > 0 {
			wl.WasmInstrRatio = float64(wasmArm.DynInstrs) / float64(vmArm.DynInstrs)
		}
		rep.Workloads = append(rep.Workloads, wl)
	}
	return rep, nil
}

// WriteBackendsJSON writes rep as indented JSON.
func WriteBackendsJSON(w io.Writer, rep BackendsReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
