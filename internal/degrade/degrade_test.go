package degrade

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// hot/calm/hold signal fixtures against the default thresholds
// (queue high 0.5, p99 high 20ms, drop high 0.01; calm frac 0.5).
func hotSignals() Signals {
	return Signals{QueueDepth: 8, QueueLimit: 10, MatchP99Ns: int64(50 * time.Millisecond), DropRate: 0.5}
}

func calmSignals() Signals {
	return Signals{QueueDepth: 0, QueueLimit: 10, MatchP99Ns: 0, DropRate: 0}
}

func holdSignals() Signals {
	// Queue at 0.4 of limit: below high (0.5) but above calm (0.25).
	return Signals{QueueDepth: 4, QueueLimit: 10, MatchP99Ns: 0, DropRate: 0}
}

// feed ticks g with s, n times.
func feed(g *Governor, s Signals, n int) {
	for i := 0; i < n; i++ {
		g.Tick(s)
	}
}

func TestLadderClimbsWithHysteresis(t *testing.T) {
	g := New(Config{})

	// One hot tick is not enough.
	g.Tick(hotSignals())
	if got := g.Level(); got != L0 {
		t.Fatalf("after 1 hot tick: level %v, want L0", got)
	}
	// The second consecutive hot tick climbs one level.
	g.Tick(hotSignals())
	if got := g.Level(); got != L1 {
		t.Fatalf("after 2 hot ticks: level %v, want L1", got)
	}
	// Counters reset on the step: two more hot ticks for the next rung.
	g.Tick(hotSignals())
	if got := g.Level(); got != L1 {
		t.Fatalf("after 3 hot ticks: level %v, want L1 (streak reset)", got)
	}
	g.Tick(hotSignals())
	if got := g.Level(); got != L2 {
		t.Fatalf("after 4 hot ticks: level %v, want L2", got)
	}
	// Stay at the cap.
	feed(g, hotSignals(), 10)
	if got := g.Level(); got != L2 {
		t.Fatalf("under sustained pressure: level %v, want L2 cap", got)
	}
}

func TestLadderRecoversLevelByLevel(t *testing.T) {
	g := New(Config{})
	feed(g, hotSignals(), 2*stepUpTicks)
	if got := g.Level(); got != L2 {
		t.Fatalf("setup: level %v, want L2", got)
	}

	// Each descent needs stepDownTicks consecutive calm observations,
	// and the streak resets after each step: L2→L0 is 2 × 5 ticks.
	for step := 2; step > 0; step-- {
		for i := 0; i < stepDownTicks-1; i++ {
			g.Tick(calmSignals())
			if got := g.Level(); got != Level(step) {
				t.Fatalf("mid-streak: level %v, want L%d", got, step)
			}
		}
		g.Tick(calmSignals())
		if got := g.Level(); got != Level(step-1) {
			t.Fatalf("after calm streak: level %v, want L%d", got, step-1)
		}
	}

	snap := g.Snapshot()
	if snap.PeakLevel != 2 {
		t.Fatalf("peak_level = %d, want 2", snap.PeakLevel)
	}
	// No flapping: each rung crossed exactly once up and once down.
	if snap.Transitions != 4 || snap.StepUps != 2 || snap.StepDowns != 2 {
		t.Fatalf("transitions=%d stepUps=%d stepDowns=%d, want 4/2/2",
			snap.Transitions, snap.StepUps, snap.StepDowns)
	}
}

func TestDeadZoneHoldsLevelAndResetsStreaks(t *testing.T) {
	g := New(Config{})
	feed(g, hotSignals(), stepUpTicks)
	if got := g.Level(); got != L1 {
		t.Fatalf("setup: level %v, want L1", got)
	}

	// A long run of in-between observations never moves the level.
	feed(g, holdSignals(), 20)
	if got := g.Level(); got != L1 {
		t.Fatalf("dead zone: level %v, want L1 held", got)
	}

	// And it resets the calm streak: a calm streak one short, a hold, and
	// another streak one short must NOT step down (together they are more
	// than enough, but not consecutive); one more calm tick must.
	feed(g, calmSignals(), stepDownTicks-1)
	g.Tick(holdSignals())
	feed(g, calmSignals(), stepDownTicks-1)
	if got := g.Level(); got != L1 {
		t.Fatalf("broken calm streak stepped down: level %v, want L1", got)
	}
	g.Tick(calmSignals())
	if got := g.Level(); got != L0 {
		t.Fatalf("consecutive calm: level %v, want L0", got)
	}
}

func TestAnySignalTriggersPressure(t *testing.T) {
	cases := []struct {
		name string
		s    Signals
	}{
		{"queue", Signals{QueueDepth: 9, QueueLimit: 10}},
		{"p99", Signals{QueueLimit: 10, MatchP99Ns: int64(30 * time.Millisecond)}},
		{"drops", Signals{QueueLimit: 10, DropRate: 0.2}},
	}
	for _, tc := range cases {
		// A fresh governor per signal: two rungs above L0 cannot take
		// three climbs.
		g := New(Config{})
		feed(g, tc.s, stepUpTicks)
		if got := g.Level(); got != L1 {
			t.Fatalf("%s signal: level %v, want L1", tc.name, got)
		}
	}
}

func TestPinOverridesLadder(t *testing.T) {
	g := New(Config{})
	g.Pin(L2)
	if got := g.Level(); got != L2 {
		t.Fatalf("pinned level %v, want L2", got)
	}
	if snap := g.Snapshot(); !snap.Pinned || snap.PinnedLevel != 2 {
		t.Fatalf("snapshot pinned=%v pinned_level=%d, want true/2", snap.Pinned, snap.PinnedLevel)
	}
	// Ticks in either direction do not move a pinned governor.
	feed(g, hotSignals(), stepUpTicks)
	feed(g, calmSignals(), stepDownTicks-1)
	if got := g.Level(); got != L2 {
		t.Fatalf("pinned governor moved: level %v, want L2", got)
	}
	snap := g.Snapshot()
	if !snap.Pinned || snap.PinnedLevel != 2 {
		t.Fatalf("snapshot pinned=%v pinned_level=%d, want true/2", snap.Pinned, snap.PinnedLevel)
	}

	// Unpin: the level stays put, then descends by hysteresis.
	g.Unpin()
	if snap := g.Snapshot(); snap.Pinned {
		t.Fatalf("snapshot after Unpin: pinned_level=%d, want unpinned", snap.PinnedLevel)
	}
	if got := g.Level(); got != L2 {
		t.Fatalf("level after Unpin = %v, want L2", got)
	}
	// The calm ticks seen while pinned do not count: a full streak
	// after the unpin is needed, and is enough.
	g.Tick(calmSignals())
	if got := g.Level(); got != L2 {
		t.Fatalf("level after one calm tick = %v, want L2 (streak carried over the pin)", got)
	}
	feed(g, calmSignals(), stepDownTicks-1)
	if got := g.Level(); got != L1 {
		t.Fatalf("level after a calm streak = %v, want L1", got)
	}
}

// TestPinRacingTickKeepsThePin: an operator's Pin lands between a Tick's
// read of the level and its store of the next one. Whatever the order, the
// governor must end serving the level it reports pinned — never a step the
// Tick decided from the level before the pin.
func TestPinRacingTickKeepsThePin(t *testing.T) {
	for i := 0; i < 50000; i++ {
		g := New(Config{})
		g.Tick(hotSignals()) // one more hot tick climbs
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			g.Tick(hotSignals())
		}()
		go func() {
			defer wg.Done()
			<-start
			g.Pin(L2)
		}()
		close(start)
		wg.Wait()
		if got := g.Level(); got != L2 {
			t.Fatalf("round %d: pinned L%d, serving %v", i, g.Snapshot().PinnedLevel, got)
		}
	}
}

func TestPinClampsToLadderBounds(t *testing.T) {
	g := New(Config{})
	g.Pin(L2 + 3)
	if got := g.Level(); got != L2 {
		t.Fatalf("pin above L2: level %v, want L2", got)
	}
	g.Pin(Level(-5))
	if got := g.Level(); got != L0 {
		t.Fatalf("pin below L0: level %v, want L0", got)
	}
}

func TestMaxLevelCapsClimb(t *testing.T) {
	g := New(Config{})
	feed(g, hotSignals(), 10*stepUpTicks)
	if got := g.Level(); got != L2 {
		t.Fatalf("capped ladder: level %v, want L2", got)
	}
	if snap := g.Snapshot(); snap.StepUps != 2 {
		t.Fatalf("step_ups = %d past the cap, want 2", snap.StepUps)
	}
}

func TestStartCloseLifecycle(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	g := New(Config{Source: func() Signals {
		mu.Lock()
		calls++
		mu.Unlock()
		return calmSignals()
	}})
	g.Start()
	g.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := calls
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observation loop never ran: %d calls", n)
		}
		time.Sleep(time.Millisecond)
	}
	g.Close()
	g.Close() // idempotent
}

func TestCloseWithoutStartIsSafe(t *testing.T) {
	g := New(Config{})
	g.Close()
}

func TestSnapshotCarriesLastSignals(t *testing.T) {
	g := New(Config{})
	s := hotSignals()
	g.Tick(s)
	snap := g.Snapshot()
	if snap.LastSignals == nil || *snap.LastSignals != s {
		t.Fatalf("last_signals = %+v, want %+v", snap.LastSignals, s)
	}
	if snap.Ticks != 1 {
		t.Fatalf("ticks = %d, want 1", snap.Ticks)
	}
}

// TestTickAllocatesNothing: the governor observes every few milliseconds
// for the life of a replica, so keeping the last observation must not cost
// a heap object per tick — not while it climbs, descends or holds.
func TestTickAllocatesNothing(t *testing.T) {
	g := New(Config{})
	hot, calm := hotSignals(), calmSignals()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if i++; i%20 < 10 {
			g.Tick(hot)
		} else {
			g.Tick(calm)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %.1f objects per call, want 0", allocs)
	}
	if snap := g.Snapshot(); snap.StepUps == 0 || snap.StepDowns == 0 {
		t.Fatalf("the ticks moved nothing (%d up, %d down): the test exercised no transition", snap.StepUps, snap.StepDowns)
	}
}

// TestDegradeLevelZeroAllocs is the hot-path gate: the level read and the
// shed-jitter draw must not allocate.
func TestDegradeLevelZeroAllocs(t *testing.T) {
	g := New(Config{})
	g.Pin(L2)
	var sink Level
	var jsink int
	allocs := testing.AllocsPerRun(1000, func() {
		sink = g.Level()
		jsink = g.Jitter3()
	})
	if allocs != 0 {
		t.Fatalf("Level+Jitter3 allocate %.1f allocs/op, want 0", allocs)
	}
	_, _ = sink, jsink
}

// TestDegradeTransitionCost is the gate on transition overhead: the Tick
// that takes one ladder step (a level store and the step counters) must
// stay far below one observation interval. Each stepping Tick is timed
// from outside.
func TestDegradeTransitionCost(t *testing.T) {
	g := New(Config{})
	var costs []time.Duration
	step := func(s Signals, n int) {
		feed(g, s, n-1)
		t0 := time.Now()
		g.Tick(s)
		costs = append(costs, time.Since(t0))
	}
	for i := 0; i < 100; i++ {
		step(hotSignals(), stepUpTicks)
		step(calmSignals(), stepDownTicks)
	}
	if snap := g.Snapshot(); snap.Transitions != 200 {
		t.Fatalf("transitions = %d, want 200", snap.Transitions)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	// 1ms is three orders of magnitude above the measured cost; this
	// trips only if a transition starts doing real work.
	if p99, limit := costs[len(costs)*99/100], time.Millisecond; p99 > limit {
		t.Fatalf("transition p99 = %v, want <= %v", p99, limit)
	}
}

func TestJitter3Spread(t *testing.T) {
	g := New(Config{})
	var counts [3]int
	for i := 0; i < 3000; i++ {
		v := g.Jitter3()
		if v < 0 || v > 2 {
			t.Fatalf("Jitter3 = %d, want 0..2", v)
		}
		counts[v]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("Jitter3 never produced %d: %v", i, counts)
		}
	}
}

func BenchmarkDegradeLevelRead(b *testing.B) {
	g := New(Config{})
	b.ReportAllocs()
	var sink Level
	for i := 0; i < b.N; i++ {
		sink = g.Level()
	}
	_ = sink
}

func BenchmarkDegradeTransition(b *testing.B) {
	g := New(Config{})
	hot, calm := hotSignals(), calmSignals()
	b.ReportAllocs()
	// One cycle is one step up and one step down.
	const cycle = stepUpTicks + stepDownTicks
	for i := 0; i < b.N; i++ {
		if i%cycle < stepUpTicks {
			g.Tick(hot)
		} else {
			g.Tick(calm)
		}
	}
}
