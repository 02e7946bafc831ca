//go:build !race

package wire_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate is skipped under it because instrumentation allocates.
const raceEnabled = false
