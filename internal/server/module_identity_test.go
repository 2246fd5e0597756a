package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"thorin/internal/bench"
	"thorin/internal/driver"
)

// TestDaemonModuleCompileMatchesInProcess pins that a daemon module compile
// encodes byte-identically to driver.Compile of the same Request.Sources:
// the daemon compiles modules one by one through its module cache and links
// the decoded module artifacts, while driver.Compile compiles and links in
// one call. Both a cold and a warm daemon compile (every module served from
// the cache) must match, for both link modes and both targets.
func TestDaemonModuleCompileMatchesInProcess(t *testing.T) {
	var example []string
	for _, name := range []string{"a.imp", "b.imp", "c.imp"} {
		src, err := os.ReadFile(filepath.Join("../../examples/modules", name))
		if err != nil {
			t.Fatal(err)
		}
		example = append(example, string(src))
	}
	sets := []struct {
		name    string
		sources []string
	}{
		{"examples/modules", example},
		{"GenModuleSet(4,1,1)", bench.GenModuleSet(4, 1, 1)},
		{"GenModuleSet(12,3,2)", bench.GenModuleSet(12, 3, 2)},
	}
	ctx := context.Background()
	for _, set := range sets {
		for _, lm := range []string{"trampoline", "mangle"} {
			for _, target := range []string{"vm", "wasm"} {
				t.Run(set.name+"/"+lm+"/"+target, func(t *testing.T) {
					req := &driver.Request{Sources: set.sources, Link: lm, Target: target}
					rr, err := req.Resolve("")
					if err != nil {
						t.Fatal(err)
					}
					encode := func(res *driver.Result) []byte {
						t.Helper()
						data, err := driver.NewArtifact(res, res.Spec, rr.Mode.String()).Encode()
						if err != nil {
							t.Fatal(err)
						}
						return data
					}
					res, err := driver.Compile(ctx, rr)
					if err != nil {
						t.Fatal(err)
					}
					want := encode(res)
					srv := New(Config{})
					for _, pass := range []string{"cold", "warm"} {
						res, tiers, err := srv.compileModules(ctx, rr)
						if err != nil {
							t.Fatalf("%s: %v", pass, err)
						}
						if pass == "warm" {
							for _, m := range tiers {
								if m.Cache != "memory" {
									t.Errorf("warm module %s cache = %q, want memory", m.Name, m.Cache)
								}
							}
						}
						if got := encode(res); !bytes.Equal(got, want) {
							t.Errorf("%s daemon compile encodes %d bytes that differ from driver.Compile's %d", pass, len(got), len(want))
						}
					}
				})
			}
		}
	}
}
