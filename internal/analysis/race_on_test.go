//go:build race

package analysis

// raceEnabled reports whether the race detector is on. Under it, sync.Pool
// drops a random share of the items put back, so pooled tables are
// reallocated and allocation counts stop being exact.
const raceEnabled = true
