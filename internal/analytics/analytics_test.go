package analytics

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCollectorEndToEnd records concurrently and checks
// that every event lands in the aggregator totals exactly once, then that
// Close flushes the final state to spill.
func TestCollectorEndToEnd(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCollector(Config{SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := VerdictBlocked
				if i%3 == 0 {
					v = VerdictNoMatch
				}
				c.Record(Event{
					UnixNano: time.Now().UnixNano(),
					Kind:     KindMatch,
					Verdict:  v,
					Ordinal:  int32(i % 7),
					Domain:   "dom.example",
					Rule:     "||ads^",
				})
			}
		}(w)
	}
	wg.Wait()

	const sent = writers * perWriter
	waitFor(t, "consumer to drain all rings", func() bool {
		snap := c.Snapshot()
		var agg uint64
		for _, n := range snap.Totals {
			agg += n
		}
		return agg+snap.Counters.Dropped == sent
	})
	snap := c.Snapshot()
	if snap.Counters.Recorded+snap.Counters.Dropped != sent {
		t.Fatalf("recorded %d + dropped %d != sent %d",
			snap.Counters.Recorded, snap.Counters.Dropped, sent)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything the aggregator held must now be on disk.
	rows, err := ReadSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var spilled uint64
	for _, r := range rows {
		spilled += r.Count
	}
	if spilled != snap.Counters.Recorded {
		t.Fatalf("spill carries %d decisions, recorded %d", spilled, snap.Counters.Recorded)
	}
	if c.Close() != nil { // idempotent
		t.Fatal("second Close errored")
	}
}

// TestCollectorExactAtFullSampling is the reconciliation contract: with
// every burst smaller than one ring and drained before the next, the totals
// equal the client-side ledger exactly.
func TestCollectorExactAtFullSampling(t *testing.T) {
	c, err := NewCollector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := map[string]uint64{}
	sent := 0
	record := func(ev Event, key string) {
		c.Record(ev)
		want[key]++
		if sent++; sent%1000 == 0 {
			waitFor(t, "the consumer to empty the rings", func() bool { return c.CountersNow().RingOccupancy == 0 })
		}
	}
	for i := 0; i < 5000; i++ {
		v := []Verdict{VerdictBlocked, VerdictAllowed, VerdictNoMatch}[i%3]
		record(Event{UnixNano: time.Now().UnixNano(), Kind: KindMatch, Verdict: v, Ordinal: -1}, "match/"+v.String())
	}
	for i := 0; i < 100; i++ {
		record(Event{UnixNano: time.Now().UnixNano(), Kind: KindClassify, Verdict: VerdictAntiAdblock, Ordinal: -1}, "classify/anti-adblock")
	}
	waitFor(t, "totals to reconcile exactly", func() bool {
		snap := c.Snapshot()
		if snap.Counters.Dropped != 0 {
			t.Fatalf("dropped %d with every burst below a ring's size", snap.Counters.Dropped)
		}
		if len(snap.Totals) != len(want) {
			return false
		}
		for k, n := range want {
			if snap.Totals[k] != n {
				return false
			}
		}
		return true
	})
}

// TestRecordZeroAllocs pins the hot-path contract: recording allocates
// nothing.
func TestRecordZeroAllocs(t *testing.T) {
	c, err := NewCollector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ev := Event{UnixNano: 123, Kind: KindMatch, Verdict: VerdictBlocked, Ordinal: 4,
		Domain: "dom.example", Rule: "||ads^"}
	allocs := testing.AllocsPerRun(1000, func() { c.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

// TestRecordNeverWaits: with the consumer stalled — its lock held, so no
// ring is drained — every Record still returns, and what found no room is
// counted as dropped rather than waited for. No timing is measured: a Record
// that takes the consumer's lock or waits for ring room never returns, and
// the test gives up after a generous 10s.
func TestRecordNeverWaits(t *testing.T) {
	c, err := NewCollector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	capacity := len(c.rings) * ringSize
	c.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ev := Event{UnixNano: time.Now().UnixNano(), Kind: KindMatch, Verdict: VerdictBlocked, Ordinal: -1}
		for i := 0; i < capacity+100; i++ {
			c.Record(ev)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.mu.Unlock()
		t.Fatalf("Record waited on a stalled consumer: %+v after 10s", c.CountersNow())
	}
	got := c.CountersNow()
	c.mu.Unlock()
	if got.Recorded != uint64(capacity) || got.Dropped != 100 {
		t.Fatalf("recorded %d, dropped %d; want %d and 100", got.Recorded, got.Dropped, capacity)
	}
}

// TestReportFromRows exercises the report builder and renderer over a
// hand-built row set.
func TestReportFromRows(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	rows := []Row{
		{Bucket: base, DurS: 10, Kind: "match", Verdict: "blocked", Domain: "ads.example", Rule: "||ads.example^", Ordinal: 0, Count: 30},
		{Bucket: base, DurS: 10, Kind: "match", Verdict: "no-match", Domain: "clean.example", Ordinal: -1, Count: 70},
		{Bucket: base.Add(10 * time.Second), DurS: 10, Kind: "match", Verdict: "blocked", Domain: "ads.example", Rule: "||ads.example^", Ordinal: 0, Count: 10},
		{Bucket: base.Add(10 * time.Second), DurS: 10, Kind: "match", Verdict: "allowed", Domain: "ads.example", Rule: "@@||ads.example/ok", Ordinal: 1, Count: 5},
		{Bucket: base, DurS: 10, Kind: "classify", Verdict: "anti-adblock", Count: 3},
		{Bucket: base, DurS: 10, Kind: "classify", Verdict: "benign", Count: 17},
	}
	rep := BuildReport(rows)
	if rep.Decisions != 135 {
		t.Fatalf("decisions = %d, want 135", rep.Decisions)
	}
	if len(rep.Timeline) != 2 || rep.Timeline[0].Blocked != 30 || rep.Timeline[1].Allowed != 5 {
		t.Fatalf("timeline = %+v", rep.Timeline)
	}
	if len(rep.Rules) != 2 || rep.Rules[0].Rule != "||ads.example^" || rep.Rules[0].Hits != 40 {
		t.Fatalf("rules = %+v", rep.Rules)
	}
	if len(rep.Domains) != 2 || rep.Domains[0].Domain != "clean.example" {
		t.Fatalf("domains = %+v", rep.Domains)
	}
	if rep.ClassifyAntiAdblock != 3 || rep.ClassifyBenign != 17 {
		t.Fatalf("classify = %d/%d", rep.ClassifyAntiAdblock, rep.ClassifyBenign)
	}
	out := rep.Render(10)
	for _, want := range []string{
		"verdict mix over time", "top firing rules", "per-domain block rates",
		"||ads.example^", "clean.example", "anti-adblock 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestReportTrimsOnRuneBoundaries: a rule or page domain longer than its
// column is cut to whole runes, so the dashboard stays valid UTF-8 whatever
// a client sent in /v1/match.
func TestReportTrimsOnRuneBoundaries(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, c := range []struct{ name, rule, domain string }{
		{"cyrillic domain", "||ads.example^", "новости-и-реклама.рф"},
		{"cyrillic rule", "||новости-и-реклама-и-ещё-немного.рф/баннер^$script", "clean.example"},
		{"cjk both", "##.広告広告広告広告広告広告広告広告広告広告広告広告広告広告広告広告", "広告広告広告広告広告広告広告広告広告広告広告.jp"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := BuildReport([]Row{{Bucket: base, DurS: 10, Kind: "match", Verdict: "blocked", Domain: c.domain, Rule: c.rule, Count: 1}})
			if out := rep.Render(10); !utf8.ValidString(out) {
				t.Fatalf("render is not valid UTF-8:\n%q", out)
			}
		})
	}
}

// TestReportSnapshotRows proves the live endpoint path feeds the same
// builder: snapshot bucket rows → report.
func TestReportSnapshotRows(t *testing.T) {
	c, err := NewCollector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Record(Event{UnixNano: time.Now().UnixNano(), Kind: KindMatch, Verdict: VerdictBlocked,
		Ordinal: 2, Domain: "ads.example", Rule: "||ads^"})
	waitFor(t, "event to reach a bucket", func() bool {
		return len(c.Snapshot().Buckets) > 0
	})
	snap := c.Snapshot()
	rep := BuildReport(RowsFromSnapshot(&snap))
	if rep.Decisions != 1 || len(rep.Rules) != 1 || rep.Rules[0].Rule != "||ads^" {
		t.Fatalf("report from snapshot = %+v", rep)
	}
}
