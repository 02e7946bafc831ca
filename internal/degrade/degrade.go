// Package degrade is what the benchmark still names of the brownout
// governor, which is gone: under a surge the admission queue's 429 is the
// overload policy (DESIGN §15). Nothing here runs.
//
// Deprecated: the types stay only because bench/ names them, until the
// seam of ROADMAP item 10(a) takes them.
package degrade

// Config is ignored.
//
// Deprecated: nothing reads it.
type Config struct{}

// Governor is a governor that never leaves full service.
//
// Deprecated: there is no governor.
type Governor struct{}

// Snapshot is what the benchmark reads of a governor: a level that never
// rose and a ladder that never moved.
type Snapshot struct {
	PeakLevel   int
	Transitions uint64
}

// Snapshot returns the zero Snapshot, always.
func (*Governor) Snapshot() Snapshot { return Snapshot{} }
