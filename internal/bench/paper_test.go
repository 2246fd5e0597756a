package bench

import (
	"io"
	"os"
	"strings"
	"testing"
)

// paperTables are the deterministic tables of the evaluation in
// `thorin-bench -all` order. Tables 4, 5 and 6 time the compiler, so they
// vary by host and stay out.
var paperTables = []func(io.Writer) error{
	Table1, Table2, FigureRuntime, FigureSweep, Table3,
	AblationConsing, AblationSchedule, AblationMem2Reg,
}

const paperGolden = "testdata/paper_tables.txt"

// TestPaperTables renders every deterministic table at full size and
// compares the output byte for byte with testdata/paper_tables.txt;
// re-bless with
//
//	THORIN_UPDATE_GOLDEN=1 go test -run TestPaperTables ./internal/bench
//
// Each table must also appear verbatim as a fenced block of EXPERIMENTS.md,
// so a change that moves a paper number fails until the golden, the table
// and the prose around it are updated together.
func TestPaperTables(t *testing.T) {
	tables := make([]string, len(paperTables))
	var got strings.Builder
	for i, render := range paperTables {
		var sb strings.Builder
		if err := render(&sb); err != nil {
			t.Fatal(err)
		}
		tables[i] = sb.String()
		got.WriteString(tables[i] + "\n")
	}

	if os.Getenv("THORIN_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(paperGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", paperGolden)
	} else if want, err := os.ReadFile(paperGolden); err != nil {
		t.Fatalf("missing golden (create with THORIN_UPDATE_GOLDEN=1): %v", err)
	} else if line, g, w := firstDiff(got.String(), string(want)); line > 0 {
		t.Errorf("%s line %d:\n got: %q\nwant: %q\n(re-bless with THORIN_UPDATE_GOLDEN=1 if intended, then update EXPERIMENTS.md)",
			paperGolden, line, g, w)
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := fencedBlocks(string(doc))
	for _, table := range tables {
		if !blocks[table] {
			t.Errorf("EXPERIMENTS.md has no fenced block equal to the rendered table\n%s", table)
		}
	}
}

// firstDiff returns the 1-based number and both versions of the first line
// where got and want differ, or 0 if they are equal.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return i + 1, gl, wl
		}
	}
	return 0, "", ""
}

// fencedBlocks returns the set of contents of the ``` blocks of a markdown
// document, each with a newline after every line.
func fencedBlocks(doc string) map[string]bool {
	blocks := map[string]bool{}
	var cur *strings.Builder
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```") && cur == nil:
			cur = &strings.Builder{}
		case strings.HasPrefix(line, "```"):
			blocks[cur.String()] = true
			cur = nil
		case cur != nil:
			cur.WriteString(line + "\n")
		}
	}
	return blocks
}
