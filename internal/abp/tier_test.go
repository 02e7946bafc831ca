package abp

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tierURLs extends the bench mix with queries that force every tier
// interaction: hot exception over cold block, cold-only block, hot block
// below and above coldMinBlk, pure miss, and a non-ASCII URL.
func tierURLs() []string {
	urls := append([]string(nil), benchURLs...)
	return append(urls,
		"http://benign0003.com/ads.js",    // exception (hot by construction) over block
		"http://vendor0000.com/a.js",      // lowest-ordinal block
		"http://vendor1995.com/x.png",     // high-ordinal block
		"http://site1001.com/ads.js",      // mid-ordinal block
		"http://detect0004.example/x.js",  // keyword reachable, options veto
		"http://cdn.unrelated.net/app.js", // pure miss
		// shared path, distinct hosts (sharedPathRules; a miss elsewhere)
		"http://host7.example/js/advertisement.js",
		"http://nohost.example/js/advertisement.js",
		"http://example.com/café.js", // non-ASCII bytes reset the scan
	)
}

func tierQueries() []Request {
	urls := tierURLs()
	qs := make([]Request, 0, 2*len(urls))
	for _, u := range urls {
		qs = append(qs,
			Request{URL: u, Type: TypeScript, PageDomain: "page.com"},
			Request{URL: u, Type: TypeImage, PageDomain: HostOf(u)},
		)
	}
	return qs
}

// assertTierTransparent proves a tiered (or reattached) list is
// observationally identical to its untiered source across the full query
// mix: every automaton path of the copy against the source's linear oracle.
func assertTierTransparent(t *testing.T, name string, plain, tiered *List) {
	t.Helper()
	for _, q := range tierQueries() {
		assertMatchesOracle(t, name, plain, tiered, q)
	}
}

// TestTieredDifferential is the tier transparency gate over adversarial
// splits: nothing voluntarily hot (every keyword block cold), everything
// hot (cold tier empty), and striped mixes that scatter hot and cold
// ordinals through the candidate sets.
func TestTieredDifferential(t *testing.T) {
	plain := NewList("tier", benchRules(2000))
	splits := map[string]func(int) bool{
		"all-cold": nil,
		"all-hot":  func(int) bool { return true },
		"stripe-2": func(ord int) bool { return ord%2 == 0 },
		"stripe-3": func(ord int) bool { return ord%3 == 1 },
		"low-hot":  func(ord int) bool { return ord < 700 },
		"high-hot": func(ord int) bool { return ord >= 1300 },
	}
	for name, keep := range splits {
		tiered := plain.CompileTiered(keep)
		if !tiered.Tiered() || plain.Tiered() {
			t.Fatalf("%s: Tiered flags wrong", name)
		}
		assertTierTransparent(t, name, plain, tiered)
	}
}

// TestAppendHitsHotUntieredIdentical: on a list with no cold tier the
// brownout path is the full path — byte-for-byte the same hits.
func TestAppendHitsHotUntieredIdentical(t *testing.T) {
	plain := NewList("tier", benchRules(2000))
	for _, q := range tierQueries() {
		want := plain.AppendHits(nil, q)
		got := plain.AppendHitsHot(nil, q)
		if len(got) != len(want) {
			t.Fatalf("%q: hot-only %d hits != full %d on untiered list", q.URL, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: hot-only hit[%d] = %v != %v", q.URL, i, got[i], want[i])
			}
		}
	}
}

// TestAppendHitsHotDegradationIsOneSided pins the brownout contract on a
// tiered list: the hot-only hit set is a subset of the full set, every
// Allowed verdict is exact (exceptions are hot by construction), every
// hot-only Blocked verdict agrees with the full path, and the ONLY
// permitted drift is a cold block degraded to NoMatch. The adversarial
// all-cold split must actually exhibit that drift, or the test has no
// teeth.
func TestAppendHitsHotDegradationIsOneSided(t *testing.T) {
	plain := NewList("tier", benchRules(2000))
	splits := map[string]func(int) bool{
		"all-cold": nil,
		"stripe-2": func(ord int) bool { return ord%2 == 0 },
		"low-hot":  func(ord int) bool { return ord < 700 },
	}
	for name, keep := range splits {
		tiered := plain.CompileTiered(keep)
		drifted := false
		for _, q := range tierQueries() {
			full := tiered.AppendHits(nil, q)
			hot := tiered.AppendHitsHot(nil, q)
			// Subset, in order.
			fi := 0
			for _, h := range hot {
				for fi < len(full) && full[fi] != h {
					fi++
				}
				if fi == len(full) {
					t.Fatalf("%s: %q: hot-only hit %v absent from full set", name, q.URL, h)
				}
				fi++
			}
			fd, fr, _ := DecideHits(full)
			hd, hr, _ := DecideHits(hot)
			switch {
			case fd == hd:
				if raw(fr) != raw(hr) {
					t.Fatalf("%s: %q: same verdict, different rule: %s vs %s", name, q.URL, raw(hr), raw(fr))
				}
			case fd == Blocked && hd == NoMatch:
				drifted = true // the one permitted degradation
			default:
				t.Fatalf("%s: %q: impermissible drift: hot-only %v, full %v", name, q.URL, hd, fd)
			}
			if fd == Allowed && hd != Allowed {
				t.Fatalf("%s: %q: Allowed verdict lost under brownout", name, q.URL)
			}
		}
		if name == "all-cold" && !drifted {
			t.Fatalf("%s: no cold block degraded — the differential exercised nothing", name)
		}
	}
}

// TestTieredSnapshotRoundTrip proves the snapshot is lossless: a
// tiered snapshot reloads tiered, with byte-identical tier regions and
// identical match behavior.
func TestTieredSnapshotRoundTrip(t *testing.T) {
	plain := NewList("AAK", benchRules(1000))
	tiered := plain.CompileTiered(func(ord int) bool { return ord%4 == 0 })
	second := NewList("CEL", benchRules(300)).CompileTiered(nil)
	snap := &ListsSnapshot{Label: "tiered-rt", Lists: []*List{tiered, second}}

	path := filepath.Join(t.TempDir(), "lists.tiered.json")
	if err := SaveListsSnapshot(path, snap); err != nil {
		t.Fatalf("SaveListsSnapshot: %v", err)
	}
	got, err := LoadListsSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tiered() {
		t.Fatal("reloaded snapshot is not tiered")
	}
	rt := got.Lists[0]
	if !rt.Tiered() {
		t.Fatal("reloaded list lost its tiers")
	}
	if string(rt.AutomatonBytes()) != string(tiered.AutomatonBytes()) ||
		string(rt.ColdAutomatonBytes()) != string(tiered.ColdAutomatonBytes()) {
		t.Fatal("tier regions not byte-identical after round trip")
	}
	assertTierTransparent(t, "reloaded", plain, rt)

	// The flat list through the same writer reloads untiered.
	flat := filepath.Join(t.TempDir(), "lists.flat.json")
	if err := SaveListsSnapshot(flat, &ListsSnapshot{Lists: []*List{plain}}); err != nil {
		t.Fatal(err)
	}
	s, err := LoadListsSnapshot(flat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tiered() {
		t.Fatal("flat snapshot reloaded tiered")
	}

	// One selection per list: NewList kept its choice for CompileTiered; the
	// list attached from the snapshot built nothing, kept nothing, and
	// selects when it is tiered — arriving at the same bytes.
	attached := s.Lists[0]
	if plain.kws == nil || attached.kws != nil {
		t.Fatalf("kept selection: built list %v, attached list %v; want kept and not kept",
			plain.kws != nil, attached.kws != nil)
	}
	again := attached.CompileTiered(func(ord int) bool { return ord%4 == 0 })
	if !bytes.Equal(again.AutomatonBytes(), tiered.AutomatonBytes()) ||
		!bytes.Equal(again.ColdAutomatonBytes(), tiered.ColdAutomatonBytes()) {
		t.Fatal("tiers compiled from the attached list differ from those compiled from the built one")
	}
}

// TestTieredHistoryDifferential runs the tier transparency gate at the
// history level: every revision's in-force list, compiled tiered, must
// answer identically to its untiered compile — growing rule sets shift
// every ordinal boundary the staged probe depends on (coldMinBlk, the
// exception frontier), so each revision is a fresh adversarial split.
func TestTieredHistoryDifferential(t *testing.T) {
	all := benchRules(900)
	h := NewHistory("tier-history")
	for i, cut := range []int{150, 400, 900} {
		h.Append(day(2014, time.Month(1+i), 1), all[:cut])
	}
	for _, at := range []time.Time{day(2014, 1, 15), day(2014, 2, 15), day(2014, 6, 1)} {
		plain := h.ListAt(at)
		tiered := plain.CompileTiered(func(ord int) bool { return ord%7 == 3 })
		assertTierTransparent(t, at.Format("2006-01"), plain, tiered)
	}
}

// TestTieredValidation is the corruption matrix for tier attachment:
// miscompiled tiers — membership overlap, missing rules, an exception in
// the cold tier, a keyword-less cold rule — are refused as corrupt.
func TestTieredValidation(t *testing.T) {
	rules := benchRules(500)
	plain := NewList("v", rules)
	tiered := plain.CompileTiered(func(ord int) bool { return ord%2 == 0 })
	hot, cold := tiered.AutomatonBytes(), tiered.ColdAutomatonBytes()

	// The pristine pair attaches.
	if _, err := NewListAttached("v", rules, plain.rulesCRC, hot, cold); err != nil {
		t.Fatalf("pristine tier pair refused: %v", err)
	}
	// Hot paired with itself: every hot ordinal lands in both tiers.
	if _, err := NewListAttached("v", rules, plain.rulesCRC, hot, hot); err == nil {
		t.Fatal("overlapping tiers accepted")
	} else if !isCorrupt(err) {
		t.Fatalf("overlap error %v does not wrap ErrCorrupt", err)
	}
	// Cold tier alone as the hot automaton: exceptions vanish from both
	// tiers (and plenty of blocks are missing too).
	if _, err := NewListAttached("v", rules, plain.rulesCRC, cold, cold); err == nil {
		t.Fatal("tiers with missing rules accepted")
	}
	// An "exception relegated to cold" compile: build tier automatons by
	// hand with one exception moved cold.
	var excOrd = -1
	kws := selectKeywords(plain.Rules())
	for ord, r := range plain.Rules() {
		if r.Kind == KindHTTPException && !kws[ord].none() {
			excOrd = ord
			break
		}
	}
	if excOrd < 0 {
		t.Fatal("bench rules carry no keyworded exception")
	}
	n := len(plain.Rules())
	hotM, coldM := make([]bool, n), make([]bool, n)
	for ord, r := range plain.Rules() {
		if !r.IsHTTP() {
			continue
		}
		if ord == excOrd {
			coldM[ord] = true
		} else {
			hotM[ord] = true
		}
	}
	badHot := buildAutomaton(plain.Rules(), kws, plain.rulesCRC, hotM)
	badCold := buildAutomaton(plain.Rules(), kws, plain.rulesCRC, coldM)
	if _, err := NewListAttached("v", rules, plain.rulesCRC, badHot.Bytes(), badCold.Bytes()); err == nil {
		t.Fatal("cold exception accepted")
	} else if !isCorrupt(err) {
		t.Fatalf("cold-exception error %v does not wrap ErrCorrupt", err)
	}

	// Half a tier pair is corrupt, as a region and as a snapshot: the hot
	// automaton alone does not hold every rule, so it cannot pass for a flat
	// list's.
	if _, err := NewListAttached("v", rules, plain.rulesCRC, hot, nil); err == nil {
		t.Fatal("hot tier alone accepted as a flat list")
	} else if !isCorrupt(err) {
		t.Fatalf("hot-alone error %v does not wrap ErrCorrupt", err)
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{tiered}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseListsSnapshot(reframe(t, data, without("automaton.cold.0"))); err == nil {
		t.Fatal("half a tier pair accepted")
	} else if !isCorrupt(err) {
		t.Fatalf("half-pair error %v does not wrap ErrCorrupt", err)
	}
}

// TestTierStats sanity-checks the tier geometry report the compaction
// tool and benches surface.
func TestTierStats(t *testing.T) {
	plain := NewList("s", benchRules(1000))
	flat := plain.TierStats()
	if flat.ColdBytes != 0 || flat.ColdRules != 0 || flat.HotRules == 0 {
		t.Fatalf("untiered stats = %+v", flat)
	}
	tiered := plain.CompileTiered(nil) // only forced-hot rules stay hot
	st := tiered.TierStats()
	if st.HotRules+st.ColdRules != flat.HotRules {
		t.Fatalf("tier split loses rules: %+v vs %d HTTP rules", st, flat.HotRules)
	}
	if st.ColdRules == 0 {
		t.Fatal("nothing went cold under a nil keep")
	}
	if st.HotBytes >= flat.HotBytes {
		t.Fatalf("hot working set did not shrink: %d >= %d", st.HotBytes, flat.HotBytes)
	}
	if !tiered.IsHotRule(tierFirstException(tiered)) {
		t.Fatal("exception not reported hot")
	}
}

func tierFirstException(l *List) int {
	for ord, r := range l.Rules() {
		if r.Kind == KindHTTPException {
			return ord
		}
	}
	return -1
}

// TestUsageLoopCoverage drives the full feedback loop the PR exists for:
// serve traffic with counters on, compact the list around the observed
// usage, and verify (a) answers stay identical, (b) ≥95% of match
// verdicts on the same traffic are then won by hot-tier rules, and (c)
// the hot working set is measurably smaller than the untiered automaton.
func TestUsageLoopCoverage(t *testing.T) {
	plain := NewList("loop", benchRules(2000))
	plain.EnableUsage()
	qs := tierQueries()
	for _, q := range qs {
		plain.MatchRequest(q)
	}
	counts := plain.Usage().Counts()
	tiered := plain.CompileTiered(func(ord int) bool { return counts[ord] > 0 })
	assertTierTransparent(t, "usage-loop", plain, tiered)

	matches, hotWins := 0, 0
	for _, q := range qs {
		hits := tiered.AppendHits(nil, q)
		_, r, ord := DecideHits(hits)
		if r == nil {
			continue
		}
		matches++
		if tiered.IsHotRule(ord) {
			hotWins++
		}
	}
	if matches == 0 {
		t.Fatal("query mix produced no matches")
	}
	if cov := float64(hotWins) / float64(matches); cov < 0.95 {
		t.Fatalf("hot coverage %.2f < 0.95 (%d/%d)", cov, hotWins, matches)
	}
	st, flat := tiered.TierStats(), plain.TierStats()
	if st.HotBytes >= flat.HotBytes {
		t.Fatalf("hot tier %dB not smaller than untiered %dB", st.HotBytes, flat.HotBytes)
	}
}

// TestUsageCounters pins the recording semantics: exactly one hit per
// match verdict, attributed to the winning rule's ordinal, none for
// no-match, and the same attribution through the AppendHits/RecordUsage
// serving path and the non-ASCII token-index fallback.
func TestUsageCounters(t *testing.T) {
	l := buildList(t, "u",
		"||ads.example^",
		"@@||ads.example/allowed",
		"/banner.",
	)
	l.EnableUsage()
	q := func(u string) Request { return Request{URL: u, Type: TypeScript, PageDomain: "p.com"} }

	l.MatchRequest(q("http://ads.example/x.js"))      // block, ordinal 0
	l.MatchRequest(q("http://ads.example/allowed/a")) // exception, ordinal 1
	l.MatchRequest(q("http://x.com/banner.png"))      // block, ordinal 2
	l.MatchRequest(q("http://x.com/banner.café"))     // fallback path, ordinal 2
	l.MatchRequest(q("http://clean.example/app.js"))  // no match

	hits := l.AppendHits(nil, q("http://ads.example/y.js"))
	_, _, ord := DecideHits(hits)
	l.RecordUsage(ord) // ordinal 0 again
	l.RecordUsage(-1)  // no-match verdict: must be ignored

	got := l.Usage().Counts()
	want := []uint64{2, 1, 2}
	for ord, w := range want {
		if got[ord] != w {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if total := l.Usage().Total(); total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	// Disabled lists record nothing and stay nil.
	if NewList("off", l.Rules()).Usage() != nil {
		t.Fatal("usage bank present without EnableUsage")
	}
}

// TestUsageRecordZeroAllocs extends the hot-path allocation gate to
// counter recording: matching with usage enabled must still not allocate.
func TestUsageRecordZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	list := NewList("gate", benchRules(2000))
	list.EnableUsage()
	qs := make([]Request, len(benchURLs))
	for i, u := range benchURLs {
		qs[i] = Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		list.MatchRequest(qs[i%len(qs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("MatchRequest with usage enabled allocates %.1f/op, want 0", allocs)
	}
}

// TestUsageStress is the loadgen-ledger-style reconciliation gate, meant
// for -race: GOMAXPROCS goroutines hammer a usage-enabled list while
// readers merge the shards concurrently, and the final merge must equal
// the exact number of matching verdicts issued — sharded counters may
// not lose or double-count a single hit.
func TestUsageStress(t *testing.T) {
	list := NewList("stress", benchRules(2000))
	list.EnableUsage()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 5000
	qs := tierQueries()

	var wg sync.WaitGroup
	issued := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n uint64
			for i := 0; i < perWorker; i++ {
				q := qs[(w+i)%len(qs)]
				if d, _ := list.MatchRequest(q); d != NoMatch {
					n++
				}
				// The serving path records through AppendHits+RecordUsage.
				if i%16 == 0 {
					var buf [8]Hit
					_, _, ord := DecideHits(list.AppendHits(buf[:0], q))
					list.RecordUsage(ord)
					if ord >= 0 {
						n++
					}
				}
			}
			issued[w] = n
		}(w)
	}
	// Concurrent aggregate readers: merges mid-traffic must be safe (the
	// values they see are per-counter consistent, monotone snapshots).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tot := list.Usage().Total(); tot < last {
					t.Error("usage total went backwards")
					return
				} else {
					last = tot
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var want uint64
	for _, n := range issued {
		want += n
	}
	if want == 0 {
		t.Fatal("stress issued no matching verdicts")
	}
	if got := list.Usage().Total(); got != want {
		t.Fatalf("usage total %d != issued matches %d", got, want)
	}
	var sum uint64
	for _, c := range list.Usage().Counts() {
		sum += c
	}
	if sum != want {
		t.Fatalf("per-ordinal counts sum %d != issued matches %d", sum, want)
	}
}

// TestUsageShardSpread sanity-checks the stack-address shard hash: under
// concurrent recording from many goroutines, more than one shard bank
// must take writes (otherwise sharding is decorative).
func TestUsageShardSpread(t *testing.T) {
	u := newUsage(4)
	if len(u.banks) == 1 {
		t.Skip("single-P process: sharding degenerates legitimately")
	}
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				u.record(i % 4)
			}
		}()
	}
	wg.Wait()
	touched := 0
	for i := range u.banks {
		var n uint64
		for ord := range u.banks[i].counters {
			n += u.banks[i].counters[ord].Load()
		}
		if n > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("all writes landed in %d shard(s) of %d", touched, len(u.banks))
	}
}
