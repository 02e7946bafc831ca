// Package degrade is the adaptive overload governor: it watches live
// pressure signals (admission queue depth, in-flight latency p99,
// analytics ring drop rate) and steps a global degradation level
// through a hysteresis-damped ladder. The serving hot path reads the
// current level with a single atomic load — no locks, no allocations —
// and sheds work in stages instead of flipping straight from full service
// to 429. No level changes what a match answers:
//
//	L0  full service
//	L1  analytics sampling forced down
//	L2  /v1/classify degraded to match-only fallback (classify shed)
//	L3  match batches shed too, with jittered Retry-After
//
// Hysteresis: the governor observes every 100ms, steps UP one level only
// after 2 consecutive over-pressure observations, and steps DOWN one level
// only after 5 consecutive calm observations — with the counters
// reset on every transition, so recovery is level-by-level rather than
// a cliff, and a borderline signal holds the current level instead of
// flapping. Operators can pin the ladder to a fixed level via
// /admin/degrade; a pinned governor keeps observing but stops stepping.
package degrade

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Level is one rung of the degradation ladder. Levels are ordered:
// higher sheds more fidelity.
type Level int32

const (
	L0 Level = iota // full service
	L1              // analytics sampling forced down
	L2              // classify shed (clients fall back to /v1/match)
	L3              // match batches shed too
)

// levelNames is indexed by Level; the shared strings make String and
// the serve-side header stamp allocation-free.
var levelNames = [4]string{"L0", "L1", "L2", "L3"}

func (l Level) String() string {
	if l < L0 || l > L3 {
		return "L?"
	}
	return levelNames[l]
}

// Signals is one observation of the pressure inputs. All values are
// windowed (per observation interval), not cumulative: the source must
// hand the governor deltas, or a past overload would pin the ladder up
// forever.
type Signals struct {
	// QueueDepth is the current admission queue occupancy.
	QueueDepth int64 `json:"queue_depth"`
	// QueueLimit is the admission queue capacity (for the fraction).
	QueueLimit int64 `json:"queue_limit"`
	// MatchP99Ns is the in-flight latency p99 over the last window, in
	// nanoseconds. Zero when the window saw no traffic.
	MatchP99Ns int64 `json:"match_p99_ns"`
	// DropRate is the analytics ring drop fraction over the last
	// window, in [0,1]. Zero when analytics is off or idle.
	DropRate float64 `json:"drop_rate"`
}

const (
	// queueHighFrac: queue depth above this fraction of the limit is
	// over-pressure.
	queueHighFrac = 0.5
	// dropHighRate: windowed analytics drop rate above this is
	// over-pressure.
	dropHighRate = 0.01
	// p99HighNs: windowed match p99 above this is over-pressure.
	p99HighNs = int64(20 * time.Millisecond)
	// calmFrac scales the high thresholds down to form the calm band: an
	// observation is calm only when every signal is below calmFrac × its
	// high threshold. The gap between calm and high is the hysteresis
	// dead zone where the level holds.
	calmFrac = 0.5

	// interval is the observation cadence of the Start loop.
	interval = 100 * time.Millisecond
	// stepUpTicks consecutive over-pressure observations are required
	// before climbing one level.
	stepUpTicks = 2
	// stepDownTicks consecutive calm observations are required before
	// descending one level.
	stepDownTicks = 5
)

// Config wires the governor to its server. The zero value is usable.
type Config struct {
	// Source produces one windowed observation per tick. Required for
	// Start; Tick can be driven directly in tests without it.
	Source func() Signals
	// OnTransition, if set, is called synchronously after every level
	// change (automatic or pinned) with the old and new levels, one
	// transition at a time and in order; it must not call back into the
	// governor's Tick, Pin, Unpin, Snapshot or TransitionP99Ns.
	OnTransition func(from, to Level)
}

// transitionRing keeps the most recent transition costs for the p99
// export. Tiny, mutex-guarded: transitions are rare by construction
// (hysteresis bounds them to at most one per stepUpTicks intervals).
const transitionRingCap = 64

// Governor steps the degradation level. Construct with New; Start
// launches the observation loop (optional — Tick can be driven
// manually, which is what the unit tests do).
type Governor struct {
	cfg Config

	level  atomic.Int32 // current Level; the ONLY hot-path read
	pinned atomic.Int32 // -1 = unpinned, else the pinned Level

	// mu makes each transition — Tick's decide-and-store, Pin's and
	// Unpin's — one step, so a pin can never land between a Tick's read
	// of the level and its store of the next one. OnTransition runs under
	// it: hooks see transitions in order and must not call back into the
	// governor. It also guards the streaks and the cost ring.
	mu        sync.Mutex
	hotTicks  int // consecutive over-pressure ticks
	calmTicks int // consecutive calm ticks

	ticks       atomic.Uint64
	stepUps     atomic.Uint64
	stepDowns   atomic.Uint64
	transitions atomic.Uint64
	peak        atomic.Int32
	lastSignals atomic.Pointer[Signals]

	jitterState atomic.Uint64 // splitmix64 counter for Jitter3

	ring     [transitionRingCap]int64 // transition durations, ns
	ringN    int
	ringNext int

	startOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New builds a governor at L0. No goroutine is started — call Start
// for the background observation loop, or drive Tick directly.
func New(cfg Config) *Governor {
	g := &Governor{cfg: cfg, done: make(chan struct{})}
	g.pinned.Store(-1)
	return g
}

// Level is the hot-path read: one atomic load, zero allocations.
func (g *Governor) Level() Level {
	return Level(g.level.Load())
}

// Jitter3 returns a value in {0,1,2} from a lock-free splitmix64
// stream — used to spread Retry-After hints so shed clients do not
// return in one synchronized wave. Zero allocations.
func (g *Governor) Jitter3() int {
	x := g.jitterState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % 3)
}

// Start launches the observation loop. Idempotent; requires
// Config.Source.
func (g *Governor) Start() {
	if g.cfg.Source == nil {
		return
	}
	g.startOnce.Do(func() {
		g.wg.Add(1)
		go g.run()
	})
}

// Close stops the observation loop (if started). Idempotent.
func (g *Governor) Close() {
	g.closeOnce.Do(func() {
		close(g.done)
	})
	g.wg.Wait()
}

func (g *Governor) run() {
	defer g.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			g.Tick(g.cfg.Source())
		}
	}
}

// Tick feeds one observation through the hysteresis ladder. Exported
// so tests (and alternative drivers) can step the governor
// deterministically without the timer loop. Safe against concurrent
// Tick, Pin, Unpin, Level and Snapshot callers.
func (g *Governor) Tick(s Signals) {
	g.ticks.Add(1)
	sc := s
	g.lastSignals.Store(&sc)

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pinned.Load() >= 0 {
		// Pinned: keep observing, stop stepping, and do not let stale
		// streak counters fire the instant the operator unpins.
		g.hotTicks, g.calmTicks = 0, 0
		return
	}

	switch g.classify(s) {
	case pressureHot:
		g.calmTicks = 0
		g.hotTicks++
		if cur := g.Level(); g.hotTicks >= stepUpTicks && cur < L3 {
			g.setLevel(cur, cur+1)
			g.hotTicks = 0
		}
	case pressureCalm:
		g.hotTicks = 0
		g.calmTicks++
		if cur := g.Level(); g.calmTicks >= stepDownTicks && cur > L0 {
			g.setLevel(cur, cur-1)
			g.calmTicks = 0
		}
	default:
		// The hysteresis dead zone: neither hot nor calm. Hold the
		// level and restart both streaks.
		g.hotTicks, g.calmTicks = 0, 0
	}
}

type pressure int

const (
	pressureHold pressure = iota
	pressureHot
	pressureCalm
)

// classify buckets one observation: hot if ANY signal exceeds its high
// threshold, calm only if ALL signals sit below calmFrac × high.
func (g *Governor) classify(s Signals) pressure {
	queueFrac := 0.0
	if s.QueueLimit > 0 {
		queueFrac = float64(s.QueueDepth) / float64(s.QueueLimit)
	}
	if queueFrac > queueHighFrac || s.MatchP99Ns > p99HighNs || s.DropRate > dropHighRate {
		return pressureHot
	}
	if queueFrac < calmFrac*queueHighFrac && float64(s.MatchP99Ns) < calmFrac*float64(p99HighNs) && s.DropRate < calmFrac*dropHighRate {
		return pressureCalm
	}
	return pressureHold
}

// setLevel performs one transition: swap the level, fire the hook,
// account the cost. The caller holds mu.
func (g *Governor) setLevel(from, to Level) {
	t0 := time.Now()
	g.level.Store(int32(to))
	if g.cfg.OnTransition != nil {
		g.cfg.OnTransition(from, to)
	}
	d := time.Since(t0).Nanoseconds()

	g.transitions.Add(1)
	if to > from {
		g.stepUps.Add(1)
	} else {
		g.stepDowns.Add(1)
	}
	for {
		p := g.peak.Load()
		if int32(to) <= p || g.peak.CompareAndSwap(p, int32(to)) {
			break
		}
	}
	g.ring[g.ringNext] = d
	g.ringNext = (g.ringNext + 1) % transitionRingCap
	if g.ringN < transitionRingCap {
		g.ringN++
	}
}

// Pin fixes the ladder at lvl until Unpin: the level changes
// immediately (firing OnTransition if it moved) and automatic stepping
// stops. Clamped to [L0, L3].
func (g *Governor) Pin(lvl Level) {
	lvl = min(max(lvl, L0), L3)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pinned.Store(int32(lvl))
	if cur := g.Level(); cur != lvl {
		g.setLevel(cur, lvl)
	}
}

// Unpin returns control to the automatic ladder. The level stays where
// it was pinned and descends (or climbs) from there by hysteresis.
func (g *Governor) Unpin() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pinned.Store(-1)
}

// TransitionP99Ns is the p99 transition cost over the recent ring, or
// 0 when no transition has happened yet.
func (g *Governor) TransitionP99Ns() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ringN == 0 {
		return 0
	}
	buf := make([]int64, g.ringN)
	copy(buf, g.ring[:g.ringN])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (99*g.ringN + 99) / 100
	if idx >= g.ringN {
		idx = g.ringN - 1
	}
	return buf[idx]
}

// Snapshot is the observability surface for /admin/degrade and
// /debug/vars.
type Snapshot struct {
	Level           string   `json:"level"`
	LevelNum        int      `json:"level_num"`
	Pinned          bool     `json:"pinned"`
	PinnedLevel     int      `json:"pinned_level,omitempty"`
	PeakLevel       int      `json:"peak_level"`
	Transitions     uint64   `json:"transitions"`
	StepUps         uint64   `json:"step_ups"`
	StepDowns       uint64   `json:"step_downs"`
	Ticks           uint64   `json:"ticks"`
	TransitionP99Ns int64    `json:"transition_p99_ns"`
	LastSignals     *Signals `json:"last_signals,omitempty"`
}

// Snapshot captures the governor state. Safe concurrent with Tick.
func (g *Governor) Snapshot() Snapshot {
	lvl := g.Level()
	snap := Snapshot{
		Level:           lvl.String(),
		LevelNum:        int(lvl),
		PeakLevel:       int(g.peak.Load()),
		Transitions:     g.transitions.Load(),
		StepUps:         g.stepUps.Load(),
		StepDowns:       g.stepDowns.Load(),
		Ticks:           g.ticks.Load(),
		TransitionP99Ns: g.TransitionP99Ns(),
		LastSignals:     g.lastSignals.Load(),
	}
	if p := g.pinned.Load(); p >= 0 {
		snap.Pinned = true
		snap.PinnedLevel = int(p)
	}
	return snap
}
