package analytics

import (
	"sort"
	"time"
)

// aggKey identifies one aggregation row inside a time bucket. Domain and
// rule are copied out of the event on first sight (events alias
// producer-owned memory that must not be pinned past the drain).
type aggKey struct {
	domain  string
	rule    string
	ordinal int32
	kind    Kind
	verdict Verdict
}

// bucket is one time window's counters.
type bucket struct {
	start    int64 // aligned unix nanos
	rows     map[aggKey]*uint64
	overflow uint64 // events folded here once rows hit the key cap
	total    uint64
}

// aggregator folds drained events into bounded-memory time buckets. It is
// single-writer (the consumer goroutine) with snapshot readers, both
// under the collector's mutex; nothing here is called from the recording
// hot path.
type aggregator struct {
	buckets []*bucket // ordered by start ascending
	// bytes estimates aggregator heap occupancy: per-row fixed overhead
	// plus the copied key strings. It only moves on insert/evict, so
	// reading it is free.
	bytes int64
	// totals is the cumulative per-kind/verdict decision count since
	// startup. Bucket eviction never touches it — reconciliation against
	// a client-side ledger stays exact across spills.
	totals         [2][verdictCount]uint64
	overflowEvents uint64
	lateEvents     uint64
}

// rowOverhead approximates the fixed per-row cost: the map entry (key
// struct + value + bucket slot overhead).
const rowOverhead = 96

// add folds one event into its time bucket, creating (and bounding)
// buckets as needed; a bucket evicted to make room spills through sw.
func (a *aggregator) add(ev *Event, sw *spillWriter) {
	kindIdx := 0
	if ev.Kind == KindClassify {
		kindIdx = 1
	}
	a.totals[kindIdx][ev.Verdict]++

	start := ev.UnixNano - ev.UnixNano%int64(bucketDur)
	b := a.bucketFor(start, sw)
	if b == nil {
		// Older than the oldest retained bucket: count it there rather
		// than resurrecting an evicted window.
		a.lateEvents++
		if len(a.buckets) == 0 {
			return
		}
		b = a.buckets[0]
	}
	b.total++
	key := aggKey{domain: ev.Domain, rule: ev.Rule, ordinal: ev.Ordinal, kind: ev.Kind, verdict: ev.Verdict}
	// A row that exists is counted through its pointer, not by assigning to
	// the map: an assignment under an equal key stores that key's strings
	// over the row's own, and the event's alias what the producer owns — the
	// request body, and the whole snapshot file a served rule's text lies in.
	if n := b.rows[key]; n != nil {
		*n++
		return
	}
	if len(b.rows) >= maxKeys {
		b.overflow++
		a.overflowEvents++
		return
	}
	// Copy the aliased strings before they outlive the drain cycle.
	key.domain = cloneString(ev.Domain)
	key.rule = cloneString(ev.Rule)
	a.bytes += rowOverhead + int64(len(key.domain)+len(key.rule))
	n := uint64(1)
	b.rows[key] = &n
}

// cloneString forces a fresh allocation so aggregator keys never alias
// producer-owned buffers.
func cloneString(s string) string {
	if s == "" {
		return ""
	}
	return string(append([]byte(nil), s...))
}

// bucketFor returns (creating if needed) the bucket with the given
// aligned start, evicting (and spilling) the oldest bucket when the cap
// is hit. It returns nil for a start older than every retained bucket.
func (a *aggregator) bucketFor(start int64, sw *spillWriter) *bucket {
	// The common case is the newest bucket; scan from the end.
	for i := len(a.buckets) - 1; i >= 0; i-- {
		if a.buckets[i].start == start {
			return a.buckets[i]
		}
		if a.buckets[i].start < start {
			// Insert after i: a fresh window, possibly out of order when
			// shards drained interleaved across a bucket boundary.
			b := &bucket{start: start, rows: make(map[aggKey]*uint64)}
			a.buckets = append(a.buckets, nil)
			copy(a.buckets[i+2:], a.buckets[i+1:])
			a.buckets[i+1] = b
			a.enforceCap(sw)
			return b
		}
	}
	if len(a.buckets) == 0 {
		b := &bucket{start: start, rows: make(map[aggKey]*uint64)}
		a.buckets = append(a.buckets, b)
		return b
	}
	return nil
}

// enforceCap evicts oldest buckets past the retention cap, spilling their
// rows. The new bucket is never the front (it inserts after an older
// one), so it always survives its own admission.
func (a *aggregator) enforceCap(sw *spillWriter) {
	for len(a.buckets) > maxBuckets {
		a.retire(a.buckets[0], sw)
		a.buckets = a.buckets[1:]
	}
}

// evictExpired retires buckets whose window ended more than the retention
// span ago, spilling their rows.
func (a *aggregator) evictExpired(nowNano int64, sw *spillWriter) {
	horizon := nowNano - int64(bucketDur)*maxBuckets
	for len(a.buckets) > 0 && a.buckets[0].start+int64(bucketDur) <= horizon {
		a.retire(a.buckets[0], sw)
		a.buckets = a.buckets[1:]
	}
}

// flushAll retires every bucket (shutdown path).
func (a *aggregator) flushAll(sw *spillWriter) {
	for _, b := range a.buckets {
		a.retire(b, sw)
	}
	a.buckets = nil
}

// retire spills a bucket's rows (when a writer is configured) and
// releases its memory accounting.
func (a *aggregator) retire(b *bucket, sw *spillWriter) {
	if sw != nil {
		for _, row := range bucketRows(b) {
			sw.write(&row)
		}
	}
	for k := range b.rows {
		a.bytes -= rowOverhead + int64(len(k.domain)+len(k.rule))
	}
}

// rowCount sums rows across retained buckets.
func (a *aggregator) rowCount() int {
	n := 0
	for _, b := range a.buckets {
		n += len(b.rows)
	}
	return n
}

// totalsMap renders the cumulative totals as "kind/verdict" → count,
// omitting zero cells.
func (a *aggregator) totalsMap() map[string]uint64 {
	out := make(map[string]uint64)
	for ki, kindTotals := range a.totals {
		kind := Kind(ki)
		for vi, n := range kindTotals {
			if n == 0 {
				continue
			}
			out[kind.String()+"/"+Verdict(vi).String()] = n
		}
	}
	return out
}

// bucketRows renders one bucket's rows in deterministic order (count
// descending, then key ascending), with the overflow fold as a final
// marked row.
func bucketRows(b *bucket) []Row {
	rows := make([]Row, 0, len(b.rows)+1)
	for k, n := range b.rows {
		rows = append(rows, Row{
			Bucket:  time.Unix(0, b.start).UTC(),
			DurS:    int(bucketDur / time.Second),
			Kind:    k.kind.String(),
			Verdict: k.verdict.String(),
			Domain:  k.domain,
			Rule:    k.rule,
			Ordinal: k.ordinal,
			Count:   *n,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		if rows[i].Domain != rows[j].Domain {
			return rows[i].Domain < rows[j].Domain
		}
		if rows[i].Rule != rows[j].Rule {
			return rows[i].Rule < rows[j].Rule
		}
		return rows[i].Verdict < rows[j].Verdict
	})
	if b.overflow > 0 {
		rows = append(rows, Row{
			Bucket:   time.Unix(0, b.start).UTC(),
			DurS:     int(bucketDur / time.Second),
			Kind:     KindMatch.String(),
			Verdict:  VerdictNoMatch.String(),
			Ordinal:  -1,
			Count:    b.overflow,
			Overflow: true,
		})
	}
	return rows
}

// bucketSnapshots renders every retained bucket oldest-first.
func (a *aggregator) bucketSnapshots() []BucketSnapshot {
	out := make([]BucketSnapshot, 0, len(a.buckets))
	for _, b := range a.buckets {
		out = append(out, BucketSnapshot{
			Start: time.Unix(0, b.start).UTC(),
			Total: b.total,
			Rows:  bucketRows(b),
		})
	}
	return out
}
