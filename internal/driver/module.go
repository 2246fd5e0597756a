package driver

import (
	"bytes"
	"encoding/json"
	"fmt"

	"thorin/internal/analysis"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/link"
	"thorin/internal/pm"
)

// ModuleUnit is one parsed and checked module source, with its link
// surface already computed. Surfaces alone are enough to resolve imports
// and derive cache keys, so callers can decide what to recompile before
// lowering anything.
type ModuleUnit struct {
	Source string
	Prog   *impala.Program
	Info   *impala.ModuleInfo
}

// Name returns the unit's module name.
func (u *ModuleUnit) Name() string { return u.Prog.Module }

// ParseModules parses and checks each source as a module unit. Every
// source must open with a module declaration, and module names must be
// unique across the set.
func ParseModules(sources []string) ([]*ModuleUnit, error) {
	units := make([]*ModuleUnit, 0, len(sources))
	seen := map[string]bool{}
	for i, src := range sources {
		prog, err := impala.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("module source %d: %w", i+1, err)
		}
		if prog.Module == "" {
			return nil, fmt.Errorf("module source %d: missing module declaration (module NAME;)", i+1)
		}
		if err := impala.CheckModule(prog); err != nil {
			return nil, fmt.Errorf("module %q: %w", prog.Module, err)
		}
		if seen[prog.Module] {
			return nil, fmt.Errorf("module %q provided twice", prog.Module)
		}
		seen[prog.Module] = true
		info, err := impala.ModuleSurface(prog)
		if err != nil {
			return nil, fmt.Errorf("module %q: %w", prog.Module, err)
		}
		units = append(units, &ModuleUnit{Source: src, Prog: prog, Info: info})
	}
	return units, nil
}

// ModuleSpec derives the per-module pipeline from a whole-program spec:
// closure conversion is deferred to after linking, because only the linked
// world reaches codegen and late cross-module rewiring may create new
// closure work.
func ModuleSpec(spec string) string {
	next, found, err := pm.StripPass(spec, "closure")
	if err != nil || !found || next == "" {
		return spec
	}
	return next
}

// PostLinkSpec is the pipeline run on the linked world. Trampoline linking
// preserves the per-module optimization boundaries, so only the minimal
// cleanup+closure round runs; mangle linking re-runs the full spec to
// specialize across module boundaries.
func PostLinkSpec(spec string, mode link.Mode) string {
	if mode == link.Mangle {
		return spec
	}
	return fallbackSpec
}

// CompileModuleUnit lowers one module unit and runs the per-module
// pipeline over its world. Module compiles are fail-fast: graceful
// degradation would silently change the module boundary semantics, so a
// pass failure is reported instead.
func CompileModuleUnit(u *ModuleUnit, spec string, cfg Config) (*link.Module, error) {
	w, info, err := emitModule(u.Prog)
	if err != nil {
		return nil, err
	}
	if _, _, err := runPipeline(w, ModuleSpec(spec), cfg); err != nil {
		return nil, fmt.Errorf("module %q: %w", u.Name(), err)
	}
	return &link.Module{World: w, Info: info}, nil
}

// emitModule runs the module emitter under panic containment.
func emitModule(prog *impala.Program) (w *ir.World, info *impala.ModuleInfo, err error) {
	defer containFrontendPanic(&err)
	return impala.EmitModule(prog)
}

// LinkCompiled stitches per-module worlds, runs the post-link pipeline and
// the backend. spec is the whole-program spec the compilation was
// requested with (Result.Spec reports it); Result.Report covers the
// post-link pipeline only.
func LinkCompiled(mods []*link.Module, spec string, linkMode link.Mode, mode analysis.Mode, cfg Config) (*Result, error) {
	w, err := link.Link(mods, linkMode)
	if err != nil {
		return nil, err
	}
	res, err := CompileWorld(w, PostLinkSpec(spec, linkMode), mode, cfg)
	if err != nil {
		return nil, err
	}
	res.Spec = spec
	return res, nil
}

// CompileModules compiles a set of module sources separately, links them,
// and finishes the whole program: frontend and per-module optimization run
// once per module on that module's own world; only linking, the post-link
// pipeline and codegen see the combined program. The produced program is
// byte-identical at every jobs level and with incremental rewriting on or
// off, like CompileSpec.
func CompileModules(sources []string, spec string, mode analysis.Mode, linkMode link.Mode, cfg Config) (*Result, error) {
	units, err := ParseModules(sources)
	if err != nil {
		return nil, err
	}
	infos := make([]*impala.ModuleInfo, len(units))
	for i, u := range units {
		infos[i] = u.Info
	}
	// Resolve the import graph before compiling anything: link-time type
	// errors should not cost a single pipeline run.
	if _, err := link.ResolveImports(infos); err != nil {
		return nil, err
	}
	mods := make([]*link.Module, len(units))
	for i, u := range units {
		if mods[i], err = CompileModuleUnit(u, spec, cfg); err != nil {
			return nil, err
		}
	}
	return LinkCompiled(mods, spec, linkMode, mode, cfg)
}

// ModuleArtifact is the cached product of one module compilation: the
// optimized module world in textual IR form (imports still unresolved
// stubs) plus its link surface. Unlike a whole-program Artifact it holds
// no bytecode — codegen runs after linking — and is therefore independent
// of the schedule mode. Encoding is deterministic for the same reasons as
// Artifact.Encode.
type ModuleArtifact struct {
	// Version is the producing compiler's driver.Version; decode rejects
	// any other (textual IR and surface encodings track the compiler).
	Version string `json:"version"`
	// Spec is the per-module pipeline spec the world was optimized with.
	Spec string `json:"spec"`
	// Info is the module's link surface.
	Info *impala.ModuleInfo `json:"info"`
	// IR is the optimized module world, printed (ir.Print format).
	IR string `json:"ir"`
}

// NewModuleArtifact packages one compiled module for caching.
func NewModuleArtifact(m *link.Module, spec string) *ModuleArtifact {
	return &ModuleArtifact{
		Version: Version,
		Spec:    spec,
		Info:    m.Info,
		IR:      ir.DumpString(m.World),
	}
}

// Encode serializes the module artifact deterministically.
func (a *ModuleArtifact) Encode() ([]byte, error) {
	if a.Info == nil || a.IR == "" {
		return nil, fmt.Errorf("driver: module artifact is incomplete")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(a); err != nil {
		return nil, fmt.Errorf("driver: encode module artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeModuleArtifact parses an encoded module artifact, validating
// version and completeness (a whole-program Artifact, which has a program
// but no IR text or surface, is rejected here and vice versa).
func DecodeModuleArtifact(data []byte) (*ModuleArtifact, error) {
	var a ModuleArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("driver: decode module artifact: %w", err)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("driver: module artifact version %q does not match compiler %q", a.Version, Version)
	}
	if a.Info == nil || a.Info.Name == "" || a.IR == "" {
		return nil, fmt.Errorf("driver: module artifact is incomplete")
	}
	return &a, nil
}

// Module reconstructs the linker input from the artifact by parsing the
// printed world. Round-tripping through the printed form is also how the
// compile server normalizes freshly compiled modules, so cold and warm
// cache paths link bit-identical inputs.
func (a *ModuleArtifact) Module() (*link.Module, error) {
	w, err := ir.ParseWorld(a.IR)
	if err != nil {
		return nil, fmt.Errorf("driver: module artifact %q: %w", a.Info.Name, err)
	}
	return &link.Module{World: w, Info: a.Info}, nil
}
