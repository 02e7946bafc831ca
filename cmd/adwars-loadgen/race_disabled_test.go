//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in. It does not
// reach the binaries TestScenarioProcesses builds and runs, so that pass is
// skipped under it.
const raceEnabled = false
