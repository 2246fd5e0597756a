package pm

import (
	"fmt"
	"sort"
	"sync"
)

// The global pass registry. Packages providing passes register them from
// init (the transform package registers the full standard set), so any
// importer can parse specs by name.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Pass)
)

// Register adds p to the global registry. It panics on an empty or
// duplicate name, on the reserved word "fix" and on a pass that is not
// exactly one of Runner and ScopeRewriter — registration happens at init
// time, where a clash is a programming error.
func Register(p Pass) {
	name := p.Name()
	if name == "" {
		panic("pm: Register with empty pass name")
	}
	if name == "fix" {
		panic(`pm: pass name "fix" is reserved for the fixpoint combinator`)
	}
	_, runner := p.(Runner)
	_, scoped := p.(ScopeRewriter)
	if runner == scoped {
		panic(fmt.Sprintf("pm: pass %q must be exactly one of Runner and ScopeRewriter", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("pm: duplicate pass %q", name))
	}
	registry[name] = p
}

// Lookup returns the registered pass of that name.
func Lookup(name string) (Pass, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names returns all registered pass names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
