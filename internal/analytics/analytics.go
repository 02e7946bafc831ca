package analytics

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// shardCap bounds the producer rings: min(GOMAXPROCS, shardCap) of them.
	shardCap = 8
	// ringSize is each ring's slot count.
	ringSize = 4096
	// bucketDur is the aggregation bucket width.
	bucketDur = 10 * time.Second
	// maxBuckets bounds how many time buckets stay in memory; older
	// buckets are spilled and evicted.
	maxBuckets = 64
	// maxKeys bounds distinct (domain, rule, verdict) rows per bucket;
	// past the cap new keys fold into the bucket's overflow row, so
	// memory stays bounded no matter how adversarial the domain mix is.
	maxKeys = 4096
	// drainInterval is the consumer's ring poll cadence.
	drainInterval = 5 * time.Millisecond
	// spillMaxBytes rotates the spill file past this size.
	spillMaxBytes = 8 << 20
)

// Config parameterizes a Collector. The zero value records every decision
// and never spills (no directory configured). Decisions go into
// min(GOMAXPROCS, 8) rings of 4096 slots, drained every 5 ms into 10-second
// buckets.
type Config struct {
	// SampleRate is ignored: a collector records every decision. It is
	// kept only for the benchmark, which still sets it.
	SampleRate float64
	// SpillDir, when non-empty, receives rotated JSONL spill files of
	// evicted and final bucket rows. Empty disables spill: evicted
	// buckets fold into the cumulative totals only.
	SpillDir string
}

// Collector is the analytics pipeline: sharded lock-free rings on the
// producer side, one consumer goroutine feeding the aggregator and spill
// on the other. Record never blocks and never allocates; everything that
// costs memory or I/O happens on the consumer.
type Collector struct {
	cfg Config

	rings []*ring
	rr    atomic.Uint64 // round-robin shard cursor

	recorded atomic.Uint64 // events accepted into a ring

	mu    sync.Mutex // guards agg + spill (consumer and snapshot readers)
	agg   *aggregator
	spill *spillWriter

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewCollector builds and starts a collector: the consumer goroutine is
// live on return. Callers must Close it to flush the rings and the final
// aggregator state to spill.
func NewCollector(cfg Config) (*Collector, error) {
	c := &Collector{
		cfg:  cfg,
		agg:  new(aggregator),
		done: make(chan struct{}),
	}
	for i := 0; i < min(runtime.GOMAXPROCS(0), shardCap); i++ {
		c.rings = append(c.rings, newRing(ringSize))
	}
	if cfg.SpillDir != "" {
		sw, err := newSpillWriter(cfg.SpillDir, spillMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("analytics: spill: %w", err)
		}
		c.spill = sw
	}
	c.wg.Add(1)
	go c.run()
	return c, nil
}

// Record logs one decision. It is safe for any number of concurrent
// callers, never blocks, and allocates nothing: the event is either
// accepted into a ring or dropped because the ring is full (counted). The
// serving hot path calls this inline.
func (c *Collector) Record(ev Event) {
	r := c.rings[c.rr.Add(1)%uint64(len(c.rings))]
	if r.push(&ev) {
		c.recorded.Add(1)
	}
}

// run is the consumer: drain every ring on a short cadence, retire
// expired buckets to spill, and on shutdown flush everything.
func (c *Collector) run() {
	defer c.wg.Done()
	t := time.NewTicker(drainInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			c.drainOnce(time.Now())
			c.mu.Lock()
			c.agg.flushAll(c.spill)
			if c.spill != nil {
				c.closeErr = c.spill.close()
			}
			c.mu.Unlock()
			return
		case now := <-t.C:
			c.drainOnce(now)
		}
	}
}

// drainOnce empties every ring into the aggregator and retires buckets
// that have aged out of the retention window.
func (c *Collector) drainOnce(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ev Event
	for _, r := range c.rings {
		for r.pop(&ev) {
			c.agg.add(&ev, c.spill)
		}
	}
	c.agg.evictExpired(now.UnixNano(), c.spill)
}

// Close stops the consumer after it has drained every ring and flushed
// the final aggregator state to spill. Idempotent; returns the spill
// writer's close error, if any.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
	})
	return c.closeErr
}

// drops sums the per-ring full-drop counters.
func (c *Collector) drops() uint64 {
	var n uint64
	for _, r := range c.rings {
		n += r.drops.Load()
	}
	return n
}

// ringOccupancy sums buffered-but-undrained events across shards.
func (c *Collector) ringOccupancy() int {
	var n int
	for _, r := range c.rings {
		n += r.occupancy()
	}
	return n
}

// Counters is the collector's cheap accounting surface: everything
// /debug/vars exports without touching the aggregator maps.
type Counters struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	// RingOccupancy is events buffered in the rings right now (waiting
	// for the consumer).
	RingOccupancy int `json:"ring_occupancy"`
}

// CountersNow reads the producer-side counters without locking.
func (c *Collector) CountersNow() Counters {
	return Counters{
		Recorded:      c.recorded.Load(),
		Dropped:       c.drops(),
		RingOccupancy: c.ringOccupancy(),
	}
}

// Snapshot captures the full pipeline state: producer counters,
// aggregator occupancy, cumulative per-kind/verdict totals, and the
// currently held bucket rows (oldest first). Safe to call concurrently
// with recording and draining.
func (c *Collector) Snapshot() Snapshot {
	snap := Snapshot{
		Enabled:  true,
		Counters: c.CountersNow(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap.BucketDurS = int(bucketDur / time.Second)
	snap.Buckets = c.agg.bucketSnapshots()
	snap.AggBytes = c.agg.bytes
	snap.AggBuckets = len(c.agg.buckets)
	snap.AggRows = c.agg.rowCount()
	snap.OverflowEvents = c.agg.overflowEvents
	snap.LateEvents = c.agg.lateEvents
	snap.Totals = c.agg.totalsMap()
	if c.spill != nil {
		snap.SpilledRows = c.spill.rows
		snap.SpilledFiles = c.spill.files
		snap.SpillDir = c.cfg.SpillDir
	}
	return snap
}

// Vars is the cheap accounting export for /debug/vars: producer counters
// plus aggregator occupancy, with no bucket rows materialized — scraping
// it costs a handful of atomic loads and one short lock hold.
type Vars struct {
	// Enabled is always true: every replica runs a collector. It stays
	// in the published shape, as in Snapshot.
	Enabled bool `json:"enabled"`
	Counters
	AggBuckets     int    `json:"agg_buckets"`
	AggRows        int    `json:"agg_rows"`
	AggBytes       int64  `json:"agg_bytes"`
	OverflowEvents uint64 `json:"overflow_events"`
	LateEvents     uint64 `json:"late_events"`
	SpilledRows    uint64 `json:"spilled_rows"`
	SpilledFiles   uint64 `json:"spilled_files"`
}

// Vars reads the accounting surface without building bucket snapshots.
func (c *Collector) Vars() Vars {
	v := Vars{Enabled: true, Counters: c.CountersNow()}
	c.mu.Lock()
	defer c.mu.Unlock()
	v.AggBuckets = len(c.agg.buckets)
	v.AggRows = c.agg.rowCount()
	v.AggBytes = c.agg.bytes
	v.OverflowEvents = c.agg.overflowEvents
	v.LateEvents = c.agg.lateEvents
	if c.spill != nil {
		v.SpilledRows = c.spill.rows
		v.SpilledFiles = c.spill.files
	}
	return v
}

// Snapshot is the /admin/analytics response body and the live input to
// adwars-report -live.
type Snapshot struct {
	Enabled    bool     `json:"enabled"`
	Counters   Counters `json:"counters"`
	BucketDurS int      `json:"bucket_dur_s"`
	// Totals are cumulative per-"kind/verdict" decision counts since
	// startup — they survive bucket eviction, which is what makes exact
	// reconciliation possible after spill.
	Totals map[string]uint64 `json:"totals"`
	// AggBuckets/AggRows/AggBytes describe current aggregator occupancy
	// against its configured bounds.
	AggBuckets     int    `json:"agg_buckets"`
	AggRows        int    `json:"agg_rows"`
	AggBytes       int64  `json:"agg_bytes"`
	OverflowEvents uint64 `json:"overflow_events"`
	LateEvents     uint64 `json:"late_events"`
	SpilledRows    uint64 `json:"spilled_rows,omitempty"`
	SpilledFiles   uint64 `json:"spilled_files,omitempty"`
	SpillDir       string `json:"spill_dir,omitempty"`
	// Buckets are the in-memory time buckets, oldest first; spilled
	// buckets are on disk, not here.
	Buckets []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one in-memory time bucket rendered for the wire.
type BucketSnapshot struct {
	Start time.Time `json:"start"`
	Total uint64    `json:"total"`
	Rows  []Row     `json:"rows"`
}
