package impala

import "thorin/internal/ir"

// ImportSig records one import edge of a module: the name it binds (which
// is also the exporting module's export name — imports do not rename), the
// exporting module, and the signature the importer compiled against. The
// linker checks Sig against the exporter's actual type.
type ImportSig struct {
	Name string `json:"name"`
	From string `json:"from"`
	Sig  string `json:"sig"`
}

// ModExport describes one entry of a module's export surface. A locally
// defined export has Forward == "" and is backed by an extern continuation
// of the same name in the module's world. A re-exported import has Forward
// set to the module it was imported from; resolving it means following the
// chain into that module's surface under the same name.
type ModExport struct {
	Sig     string `json:"sig"`
	Forward string `json:"forward,omitempty"`
}

// ModuleInfo is a module's link surface: what it exports, what it imports,
// and from whom. It travels alongside the module's world (and inside the
// per-module artifact) so the linker can resolve and type-check edges
// without re-parsing sources.
type ModuleInfo struct {
	Name    string               `json:"name"`
	Exports map[string]ModExport `json:"exports,omitempty"`
	Imports []ImportSig          `json:"imports,omitempty"`
	// Externs lists functions declared `extern fn` (main included): they
	// stay externally visible in the linked program, unlike `export fn`
	// markers, which the linker strips after resolution.
	Externs []string `json:"externs,omitempty"`
}

// CompileModule parses, checks and lowers one module unit into its own
// world. Imports become bodyless extern continuation stubs named after the
// imported function; the linker replaces them with the exporter's
// definitions (see internal/link).
func CompileModule(src string) (*ir.World, *ModuleInfo, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckModule(prog); err != nil {
		return nil, nil, err
	}
	return EmitModule(prog)
}

// ModuleSurface computes a checked module unit's link surface without
// lowering it. Build systems and the compile server use it to resolve
// import edges (and derive cache keys) before deciding what to recompile.
func ModuleSurface(prog *Program) (*ModuleInfo, error) {
	info := &ModuleInfo{Name: prog.Module, Exports: map[string]ModExport{}}
	c := &checker{funcs: map[string]*Fn{}}
	imported := map[string]*ImportDecl{}
	sigs := map[string]*Fn{}
	for _, im := range prog.Imports {
		sig, err := c.importSig(im)
		if err != nil {
			return nil, err
		}
		sigs[im.Name] = sig
		imported[im.Name] = im
		info.Imports = append(info.Imports, ImportSig{Name: im.Name, From: im.From, Sig: sig.String()})
	}
	for _, f := range prog.Funcs {
		sig, err := c.funcSig(f)
		if err != nil {
			return nil, err
		}
		sigs[f.Name] = sig
		if f.Exported {
			info.Exports[f.Name] = ModExport{Sig: sig.String()}
		}
		if f.Extern {
			info.Externs = append(info.Externs, f.Name)
		}
	}
	for _, re := range prog.Reexports {
		sig := sigs[re.Name] // resolvability checked by CheckModule
		if im, ok := imported[re.Name]; ok {
			info.Exports[re.Name] = ModExport{Sig: sig.String(), Forward: im.From}
			continue
		}
		info.Exports[re.Name] = ModExport{Sig: sig.String()}
	}
	return info, nil
}

// EmitModule lowers a checked module unit. Like EmitProgram, but:
//
//   - each import materializes as a bodyless extern continuation (the
//     "stub") with the CPS type of its declared signature, callable from
//     module code exactly like a local function;
//   - exported functions are marked extern so per-module optimization
//     treats them as roots (the linker de-externs everything but main
//     after stitching);
//   - the returned ModuleInfo captures the export/import surface with
//     printable signature strings for link-time type checking.
func EmitModule(prog *Program) (*ir.World, *ModuleInfo, error) {
	info, err := ModuleSurface(prog)
	if err != nil {
		return nil, nil, err
	}
	w, err := emit(prog, info.Exports, false)
	if err != nil {
		return nil, nil, err
	}
	return w, info, nil
}
