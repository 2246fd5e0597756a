package vmbackend

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"thorin/internal/analysis"
	"thorin/internal/impala"
	"thorin/internal/ir"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

// goldenPrograms pin the VM emitter's instruction selection: each source is
// compiled through the standard O2 pipeline and its disassembly compared
// byte-for-byte against testdata/<name>.disasm. A diff means instruction
// selection, register allocation or block layout changed — fine when
// intentional (re-bless with
// `THORIN_UPDATE_GOLDEN=1 go test -run TestGoldenDisasm ./internal/backend/vm`),
// a regression when not. Together with the driver's artifact-determinism
// tests this keeps vm codegen both stable and reviewable.
var goldenPrograms = []struct {
	name string
	src  string
}{
	{"arith", `fn main(n: i64) -> i64 { n * n + 1 }`},

	{"branch", `fn main(a: i64, b: i64) -> i64 { if a < b { a } else { b } }`},

	{"loop", `
fn main(n: i64) -> i64 {
	let mut s = 0;
	let mut i = 0;
	while i < n {
		s = s + i;
		i = i + 1;
	}
	s
}`},

	{"call", `
fn sq(x: i64) -> i64 { x * x }
fn main(n: i64) -> i64 { sq(n) + sq(n + 1) }`},

	{"memory", `
fn main(n: i64) -> i64 {
	let a = [n; 4];
	a[1] = a[0] + 1;
	a[0] + a[1] + len(a)
}`},

	{"float", `
fn main(n: i64) -> i64 {
	let x = 1.5 * 2.0;
	if x < 4.0 { n } else { 0 - n }
}`},
}

func TestGoldenDisasm(t *testing.T) {
	for _, tc := range goldenPrograms {
		t.Run(tc.name, func(t *testing.T) {
			w, err := impala.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			optimize(t, w, transform.O2)
			if err := ir.Verify(w); err != nil {
				t.Fatalf("verify: %v", err)
			}
			prog, err := Compile(w, "main", Config{Mode: analysis.ScheduleSmart})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var buf bytes.Buffer
			vm.Disassemble(&buf, prog)

			path := filepath.Join("testdata", tc.name+".disasm")
			if os.Getenv("THORIN_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (create with THORIN_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("disassembly drifted from %s (re-bless with THORIN_UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s--- want ---\n%s",
					path, buf.String(), want)
			}
		})
	}
}
