//go:build !race

package analysis

// raceEnabled reports whether the race detector is on (see race_on_test.go).
const raceEnabled = false
