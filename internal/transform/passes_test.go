package transform

import (
	"strings"
	"testing"

	"thorin/internal/pm"
)

// TestEveryPassRunsAtO2: every registered pass is part of the -O2
// pipeline, so no pass lands that only an explicit -passes spec can reach.
// Passes this package's tests register to model broken passes are exempt.
func TestEveryPassRunsAtO2(t *testing.T) {
	inO2 := map[string]bool{}
	for _, name := range strings.FieldsFunc(O2, func(r rune) bool { return r == ',' || r == '(' || r == ')' }) {
		inO2[name] = true
	}
	testOnly := map[string]bool{badManglePass{}.Name(): true}
	for _, name := range pm.Names() {
		if !inO2[name] && !testOnly[name] {
			t.Errorf("pass %q is registered but not in O2 (%s)", name, O2)
		}
	}
}
