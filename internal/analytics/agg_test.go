package analytics

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
	"unsafe"
)

func addEvent(a *aggregator, sw *spillWriter, ts time.Time, domain, rule string, v Verdict) {
	ev := Event{UnixNano: ts.UnixNano(), Kind: KindMatch, Verdict: v, Ordinal: 1, Domain: domain, Rule: rule}
	a.add(&ev, sw)
}

// TestAggregatorBuckets checks bucket alignment, row counting, and the
// cumulative totals.
func TestAggregatorBuckets(t *testing.T) {
	a := new(aggregator)
	base := time.Date(2026, 8, 8, 12, 0, 3, 0, time.UTC)
	addEvent(a, nil, base, "a.example", "||ads^", VerdictBlocked)
	addEvent(a, nil, base.Add(time.Second), "a.example", "||ads^", VerdictBlocked)
	addEvent(a, nil, base.Add(9*time.Second), "b.example", "", VerdictNoMatch) // next bucket (12:00:12)
	if len(a.buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(a.buckets))
	}
	first := a.buckets[0]
	if got := time.Unix(0, first.start).UTC(); got != time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) {
		t.Fatalf("first bucket start = %v", got)
	}
	if first.total != 2 || len(first.rows) != 1 {
		t.Fatalf("first bucket total=%d rows=%d, want 2/1", first.total, len(first.rows))
	}
	tm := a.totalsMap()
	if tm["match/blocked"] != 2 || tm["match/no-match"] != 1 {
		t.Fatalf("totals = %v", tm)
	}
	if a.bytes <= 0 {
		t.Fatal("bytes estimate not tracked")
	}
}

// TestAggregatorBucketEviction drives more buckets than the cap and
// checks that memory stays bounded, evicted rows land in spill, and the
// cumulative totals survive eviction.
func TestAggregatorBucketEviction(t *testing.T) {
	dir := t.TempDir()
	sw, err := newSpillWriter(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a := new(aggregator)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	const buckets = maxBuckets + 8
	for i := 0; i < buckets; i++ {
		addEvent(a, sw, base.Add(time.Duration(i)*bucketDur), "dom.example", "||ads^", VerdictBlocked)
	}
	if len(a.buckets) != maxBuckets {
		t.Fatalf("retained %d buckets, cap is %d", len(a.buckets), maxBuckets)
	}
	if a.rowCount() != maxBuckets {
		t.Fatalf("rowCount = %d, want %d", a.rowCount(), maxBuckets)
	}
	if a.totalsMap()["match/blocked"] != buckets {
		t.Fatalf("totals lost events across eviction: %v", a.totalsMap())
	}
	// The 8 evicted buckets each spilled their single row.
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != buckets-maxBuckets {
		t.Fatalf("spilled %d rows, want %d", len(rows), buckets-maxBuckets)
	}
	// Expired-time eviction flushes the rest.
	sw2, err := newSpillWriter(filepath.Join(dir, "late"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a.evictExpired(base.Add(time.Hour).UnixNano(), sw2)
	if len(a.buckets) != 0 {
		t.Fatalf("evictExpired left %d buckets", len(a.buckets))
	}
	if a.bytes != 0 {
		t.Fatalf("bytes estimate = %d after full eviction, want 0", a.bytes)
	}
}

// TestAggregatorKeyCapOverflow floods one bucket with distinct keys: past
// the cap new keys must fold into the overflow row, keeping memory
// bounded, while known keys still count normally.
func TestAggregatorKeyCapOverflow(t *testing.T) {
	a := new(aggregator)
	base := time.Date(2026, 8, 8, 12, 0, 5, 0, time.UTC)
	const keys = maxKeys + 6
	for i := 0; i < keys; i++ {
		addEvent(a, nil, base, fmt.Sprintf("d%d.example", i), "", VerdictNoMatch)
	}
	// A repeat of a retained key still lands on its row.
	addEvent(a, nil, base, "d0.example", "", VerdictNoMatch)
	b := a.buckets[0]
	if len(b.rows) != maxKeys {
		t.Fatalf("rows = %d, want cap %d", len(b.rows), maxKeys)
	}
	if b.overflow != 6 {
		t.Fatalf("overflow = %d, want 6", b.overflow)
	}
	if a.overflowEvents != 6 {
		t.Fatalf("overflowEvents = %d, want 6", a.overflowEvents)
	}
	if b.total != keys+1 {
		t.Fatalf("total = %d, want %d", b.total, keys+1)
	}
	rows := bucketRows(b)
	last := rows[len(rows)-1]
	if !last.Overflow || last.Count != 6 {
		t.Fatalf("overflow row = %+v", last)
	}
}

// TestAggregatorLateEvents sends an event older than every retained
// bucket: it must fold into the oldest bucket and tick the late counter
// instead of resurrecting an evicted window.
func TestAggregatorLateEvents(t *testing.T) {
	a := new(aggregator)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < maxBuckets+2; i++ { // the first two are evicted
		addEvent(a, nil, base.Add(time.Duration(i)*bucketDur), "d.example", "", VerdictNoMatch)
	}
	addEvent(a, nil, base, "late.example", "", VerdictNoMatch)
	if a.lateEvents != 1 {
		t.Fatalf("lateEvents = %d, want 1", a.lateEvents)
	}
	if len(a.buckets) != maxBuckets {
		t.Fatalf("buckets = %d, want %d", len(a.buckets), maxBuckets)
	}
	if a.buckets[0].total != 2 {
		t.Fatalf("late event not folded into oldest bucket: total = %d", a.buckets[0].total)
	}
}

// TestAggregatorKeyCloning proves aggregator keys do not alias the
// event's strings (which belong to the producer: a request body, a snapshot
// file) — neither when the row is made nor when a later, equal event is
// counted into it.
func TestAggregatorKeyCloning(t *testing.T) {
	a := new(aggregator)
	now := time.Now().UnixNano()
	events := make([]Event, 3)
	for i := range events {
		events[i] = Event{UnixNano: now, Kind: KindMatch, Verdict: VerdictBlocked,
			Domain: string([]byte("mutable.example")), Rule: string([]byte("||ads.example^"))}
		a.add(&events[i], nil)
	}
	if len(a.buckets[0].rows) != 1 {
		t.Fatalf("%d rows, want 1", len(a.buckets[0].rows))
	}
	for k, n := range a.buckets[0].rows {
		if k.domain != "mutable.example" || k.rule != "||ads.example^" || *n != 3 {
			t.Fatalf("row %q %q counts %d", k.domain, k.rule, *n)
		}
		for i := range events {
			if unsafe.StringData(k.domain) == unsafe.StringData(events[i].Domain) || unsafe.StringData(k.rule) == unsafe.StringData(events[i].Rule) {
				t.Fatalf("the row's key aliases event %d's strings", i)
			}
		}
	}
}
