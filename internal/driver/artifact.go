package driver

import (
	"bytes"
	"encoding/json"
	"fmt"

	"thorin/internal/backend"
	"thorin/internal/vm"
)

// Artifact is the serialized product of one compilation: the compiled
// bytecode program plus enough provenance to trust and diagnose it. It is
// what the compile server stores in its content-addressed cache and ships
// back to clients, so encoding must be deterministic: the same Result
// always encodes to the same bytes (encoding/json writes struct fields in
// declaration order, and the program itself is byte-identical at every
// jobs level and with incremental rewriting on or off).
type Artifact struct {
	// Version is the compiler version the artifact was produced by
	// (driver.Version). Decode rejects artifacts from any other version —
	// the bytecode format is not stable across compiler changes.
	Version string `json:"version"`
	// Target names the backend the payload was compiled for ("vm" or
	// "wasm"); it decides which payload field is set.
	Target backend.Target `json:"target"`
	// Spec is the resolved pipeline spec the program was compiled with.
	Spec string `json:"spec"`
	// Schedule is the canonical primop schedule name ("early", "late",
	// "smart").
	Schedule string `json:"schedule"`
	// Degraded and FailedPasses record graceful degradation, mirroring
	// Result. Degraded artifacts are valid programs but are never cached:
	// they are not the program the requested spec denotes.
	Degraded     bool     `json:"degraded,omitempty"`
	FailedPasses []string `json:"failed_passes,omitempty"`
	// IRStats summarizes the optimized IR the program was emitted from.
	IRStats IRStats `json:"ir_stats"`
	// Program is the compiled bytecode (Target "vm").
	Program *vm.Program `json:"program,omitempty"`
	// Wasm is the encoded wasm module (Target "wasm").
	Wasm []byte `json:"wasm,omitempty"`
}

// NewArtifact packages a compilation result for transport and caching.
func NewArtifact(res *Result, spec, schedule string) *Artifact {
	return &Artifact{
		Version:      Version,
		Target:       res.Target,
		Spec:         spec,
		Schedule:     schedule,
		Degraded:     res.Degraded,
		FailedPasses: res.FailedPasses,
		IRStats:      res.IRStats,
		Program:      res.Program,
		Wasm:         res.Wasm,
	}
}

// checkPayload validates that exactly the payload matching the target is
// present: a vm artifact carries a program, a wasm artifact a module, and
// never both.
func (a *Artifact) checkPayload() error {
	switch a.Target {
	case backend.VM:
		if a.Program == nil {
			return fmt.Errorf("driver: vm artifact has no program")
		}
		if a.Wasm != nil {
			return fmt.Errorf("driver: vm artifact carries a wasm payload")
		}
	case backend.Wasm:
		if len(a.Wasm) == 0 {
			return fmt.Errorf("driver: wasm artifact has no module")
		}
		if a.Program != nil {
			return fmt.Errorf("driver: wasm artifact carries a vm program")
		}
	default:
		return fmt.Errorf("driver: artifact has unknown target %q", a.Target)
	}
	return nil
}

// Encode serializes the artifact. The encoding is deterministic, so two
// compilations of the same (source, spec, schedule, target) produce
// byte-identical artifacts regardless of jobs level or incremental mode.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.checkPayload(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(a); err != nil {
		return nil, fmt.Errorf("driver: encode artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeArtifact parses an encoded artifact and validates its provenance:
// a missing or mismatched payload or a version mismatch is an error,
// because a payload from a different compiler build (or for a different
// target) must never be executed as if current.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("driver: decode artifact: %w", err)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("driver: artifact version %q does not match compiler %q", a.Version, Version)
	}
	if err := a.checkPayload(); err != nil {
		return nil, err
	}
	return &a, nil
}
