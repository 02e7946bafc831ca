package abp

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Usage is a sharded per-rule hit-counter bank attached to a compiled
// List. Recording a hit is one atomic add into one shard — no locks, no
// allocation, nothing on the match hot path beyond the add itself — so
// counters can stay enabled on every serving replica. Aggregation cost is
// pushed entirely onto readers: Counts merges the shards on demand, which
// is why /debug/vars and /admin/usage can expose totals without the hot
// path ever maintaining them.
//
// Sharding exists to keep concurrent recorders off each other's cache
// lines: GOMAXPROCS goroutines hammering one shared counter array would
// serialize on cache-line ownership. Each shard's counter bank is a
// separate allocation (banks never share lines with each other), and a
// recorder picks its shard by hashing a stack address — a per-goroutine
// value that costs nothing to derive and needs no runtime hooks — so
// concurrent goroutines spread across shards while a single goroutine
// stays on one.
//
// Behind the per-rule counters each bank keeps two more: the probes the list
// answered and the candidates they verified — what selection and the guards
// exist to keep small, live.
type Usage struct {
	banks []usageBank
	mask  uint64
	rules int
}

// usageBank is one shard. The trailing pad keeps adjacent bank headers
// (slice pointers read on every record) on distinct cache lines; the
// counter arrays themselves are separate allocations and therefore never
// share lines across shards.
type usageBank struct {
	counters []atomic.Uint64
	_        [64]byte
}

// newUsage sizes the bank for nrules rules with one shard per P (rounded
// up to a power of two, capped at 64 so huge machines do not multiply the
// merge cost past reason).
func newUsage(nrules int) *Usage {
	shards := 1
	for shards < runtime.GOMAXPROCS(0) && shards < 64 {
		shards <<= 1
	}
	u := &Usage{
		banks: make([]usageBank, shards),
		mask:  uint64(shards - 1),
		rules: nrules,
	}
	for i := range u.banks {
		u.banks[i].counters = make([]atomic.Uint64, nrules+2)
	}
	return u
}

// record counts one match verdict won by the rule at ord. Out-of-range
// ordinals (notably -1 for no-match) are ignored, so callers can pass a
// verdict's ordinal unconditionally.
func (u *Usage) record(ord int) {
	if ord < 0 || ord >= u.rules {
		return
	}
	u.bank()[ord].Add(1)
}

// bank picks the calling goroutine's shard. A stack variable's address is
// stable within a call and distinct across concurrently running goroutines —
// exactly the locality a shard key needs. Fibonacci hashing mixes the low,
// allocator-aligned bits into the top, where the mask reads them.
func (u *Usage) bank() []atomic.Uint64 {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15
	return u.banks[(h>>48)&u.mask].counters
}

// Probes merges the probe counters: lookups answered, candidates verified.
func (u *Usage) Probes() (probes, candidates uint64) {
	for i := range u.banks {
		probes += u.banks[i].counters[u.rules].Load()
		candidates += u.banks[i].counters[u.rules+1].Load()
	}
	return probes, candidates
}

// Counts merges every shard into a fresh per-ordinal total. This is the
// lazy aggregate read: O(shards·rules) on the reader, zero cost on
// recorders. Concurrent recording is safe; a merge taken mid-traffic is a
// consistent snapshot per counter (each counter is read once, atomically),
// which is all reconciliation needs once traffic has stopped.
func (u *Usage) Counts() []uint64 {
	out := make([]uint64, u.rules)
	for i := range u.banks {
		c := u.banks[i].counters[:u.rules]
		for ord := range c {
			out[ord] += c[ord].Load()
		}
	}
	return out
}

// Total returns the merged hit count across all rules.
func (u *Usage) Total() uint64 {
	var t uint64
	for i := range u.banks {
		c := u.banks[i].counters[:u.rules]
		for ord := range c {
			t += c[ord].Load()
		}
	}
	return t
}

// EnableUsage attaches a hit-counter bank to the list. It must be called
// before the list is shared with concurrent matchers (the serving layer
// enables usage while installing a snapshot, before publishing it);
// enabling is idempotent and recording stays disabled — a nil check on
// the hot path — until it is called.
func (l *List) EnableUsage() {
	if l.usage == nil {
		l.usage = newUsage(len(l.rules))
	}
}

// Usage returns the list's hit-counter bank, or nil when usage was never
// enabled.
func (l *List) Usage() *Usage { return l.usage }

// RecordUsage counts one match verdict won by the rule at ord (as
// returned by DecideHits). No-ops when usage is disabled or the verdict
// was no-match (ord < 0). Callers that derive verdicts from AppendHits
// record through this; MatchRequest records its own verdicts internally.
func (l *List) RecordUsage(ord int) {
	if u := l.usage; u != nil {
		u.record(ord)
	}
}

// recordProbe counts a probe and the candidates it handed to verification.
// Like RecordUsage, a nil check when usage is disabled.
func (l *List) recordProbe(candidates int) {
	if u := l.usage; u != nil {
		b := u.bank()
		b[u.rules].Add(1)
		b[u.rules+1].Add(uint64(candidates))
	}
}
