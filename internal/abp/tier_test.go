package abp

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tierURLs extends the bench mix with queries that force every tier
// interaction: hot exception over non-hot block, non-hot block alone, hot
// blocks low and high in the list, pure miss, and a non-ASCII URL.
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

// probeCounts is what usage counters read after one AppendHits and one
// MatchRequest of every tier query: probes made, candidates verified.
func probeCounts(l *List) (probes, candidates uint64) {
	l.usage = newUsage(l.Len())
	defer func() { l.usage = nil }()
	for _, q := range tierQueries() {
		l.AppendHits(nil, q)
		l.MatchRequest(q)
	}
	return l.usage.Probes()
}

// TestTieredDifferential is the tier transparency gate over adversarial
// hot sets: nothing voluntarily hot, everything hot, striped mixes that
// scatter hot and other ordinals through the candidate sets, and the set
// usage counters derive from the queries themselves — each freshly compiled
// and after a trip through the snapshot. Full lookups equal the flat list's
// and the linear oracle's, hot-only lookups miss non-hot blocks and nothing
// else (assertMatchesOracle), and a full lookup is one probe of exactly the
// flat list's candidates.
func TestTieredDifferential(t *testing.T) {
	plain := NewList("tier", benchRules(2000))
	plain.EnableUsage()
	for _, q := range tierQueries() {
		plain.MatchRequest(q)
	}
	fired := plain.Usage().Counts()
	probes, cands := probeCounts(plain)
	if probes != uint64(2*len(tierQueries())) || cands == 0 {
		t.Fatalf("flat list: %d probes, %d candidates over %d queries", probes, cands, len(tierQueries()))
	}
	splits := map[string]func(int) bool{
		"none":     nil,
		"all":      func(int) bool { return true },
		"stripe-2": func(ord int) bool { return ord%2 == 0 },
		"stripe-3": func(ord int) bool { return ord%3 == 1 },
		"low":      func(ord int) bool { return ord < 700 },
		"high":     func(ord int) bool { return ord >= 1300 },
		"usage":    func(ord int) bool { return fired[ord] > 0 },
	}
	for name, keep := range splits {
		tiered := plain.CompileTiered(keep)
		if !tiered.Tiered() || plain.Tiered() {
			t.Fatalf("%s: Tiered flags wrong", name)
		}
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{tiered}})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ParseListsSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for stage, l := range map[string]*List{"compiled": tiered, "reloaded": snap.Lists[0]} {
			if p, c := probeCounts(l); p != probes || c != cands {
				t.Errorf("%s %s: %d probes, %d candidates; the flat list makes %d, %d", name, stage, p, c, probes, cands)
			}
			assertTierTransparent(t, name+" "+stage, plain, l)
		}
	}
}

// TestAppendHitsHotUntieredIdentical: on a list with no hot automaton the
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
// permitted drift is a non-hot block degraded to NoMatch. The adversarial
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
			t.Fatalf("%s: no non-hot block degraded — the differential exercised nothing", name)
		}
	}
}

// TestTieredSnapshotRoundTrip proves the snapshot is lossless: a
// tiered snapshot reloads tiered, with byte-identical regions and
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
		string(rt.HotAutomatonBytes()) != string(tiered.HotAutomatonBytes()) {
		t.Fatal("regions not byte-identical after round trip")
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
}

// TestRetiering: whatever list a tiering starts from — the compiled flat
// list, a tiered one (its whole automaton is handed on, never its hot one),
// or either attached from a snapshot (which built nothing, kept no selection,
// and selects and builds when it is tiered) — the same hot set gives the same
// bytes, and the whole region is the flat list's.
func TestRetiering(t *testing.T) {
	plain := NewList("re", benchRules(1000))
	keep := func(ord int) bool { return ord%4 == 0 }
	want := plain.CompileTiered(keep)
	if !bytes.Equal(want.AutomatonBytes(), plain.AutomatonBytes()) {
		t.Fatal("a tiered list's whole automaton is not its flat list's")
	}
	if want.auto != plain.auto {
		t.Error("tiering a compiled list built its whole automaton again")
	}
	other := plain.CompileTiered(func(ord int) bool { return ord%3 == 0 })
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{plain, other}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, from := range map[string]*List{
		"flat": plain, "tiered": other, "want": want,
		"attached flat": snap.Lists[0], "attached tiered": snap.Lists[1],
	} {
		if attached := strings.HasPrefix(name, "attached"); attached != (from.kws == nil) {
			t.Fatalf("%s: kept selection %v", name, from.kws != nil)
		}
		again := from.CompileTiered(keep)
		if !bytes.Equal(again.AutomatonBytes(), want.AutomatonBytes()) ||
			!bytes.Equal(again.HotAutomatonBytes(), want.HotAutomatonBytes()) {
			t.Errorf("tiers compiled from the %s list differ from those compiled from the flat one", name)
		}
		assertTierTransparent(t, name, plain, again)
	}
}

// TestTieredHistoryDifferential runs the tier transparency gate at the
// history level: every revision's in-force list, compiled tiered, must
// answer identically to its untiered compile — growing rule sets shift
// which ordinals are hot, so each revision is a fresh adversarial split.
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

// TestTieredValidation is the corruption matrix for the subset check: a
// pair in which the hot region is not a subset of the whole one filed the
// same way, or leaves out a rule correctness pins there, or whose whole
// region is not whole, is refused as tier-invalid. Every region here is
// structurally sound (openAutomaton takes each), so nothing but attachHot
// stands between the pair and a list that would miss rules.
func TestTieredValidation(t *testing.T) {
	rules := append(benchRules(500), buildList(t, "short", "/ad/", "/x1/").Rules()...)
	plain := NewList("v", rules)
	// Every rule under its longest run: each HTTP rule with a run is in the
	// automata by keyword, whether or not it names a page domain.
	kws := longestRunKeywords(rules)
	crc := plain.rulesCRC
	build := func(kws []kwSpan, member func(ord int) bool) []byte {
		m := make([]bool, len(rules))
		for ord := range m {
			m[ord] = member(ord)
		}
		return buildAutomaton(rules, kws, nil, crc, m).Bytes()
	}
	// pick returns the first HTTP rule want holds of.
	pick := func(what string, want func(ord int, r *Rule) bool) int {
		for ord, r := range rules {
			if r.IsHTTP() && want(ord, r) {
				return ord
			}
		}
		t.Fatalf("the rules hold no %s", what)
		return -1
	}
	hotSet := func(ord int) bool {
		return rules[ord].Kind == KindHTTPException || kws[ord].none() || ord%2 == 0
	}
	all := func(int) bool { return true }
	except := func(set func(int) bool, out int) func(int) bool {
		return func(ord int) bool { return ord != out && set(ord) }
	}
	hotBlock := pick("hot block that names no page domain", func(ord int, r *Rule) bool {
		return r.Kind == KindHTTPBlock && len(r.Domains()) == 0 && !kws[ord].none() && hotSet(ord)
	})
	hotDomainBlock := pick("hot block that names a page domain", func(ord int, r *Rule) bool {
		return r.Kind == KindHTTPBlock && len(r.Domains()) > 0 && !kws[ord].none() && hotSet(ord)
	})
	exception := pick("keyworded exception", func(ord int, r *Rule) bool {
		return r.Kind == KindHTTPException && !kws[ord].none()
	})
	generic := pick("keyword-less rule", func(ord int, r *Rule) bool { return kws[ord].none() })
	// refiled is kws with hotBlock under another run of its pattern, ungeneric
	// with it under none.
	refiled, ungeneric := slices.Clone(kws), slices.Clone(kws)
	pat := rules[hotBlock].Pattern
	for i, j := nextKeywordRun(pat, 0); i >= 0; i, j = nextKeywordRun(pat, j) {
		if span := (kwSpan{uint32(i), uint32(j)}); span != kws[hotBlock] {
			refiled[hotBlock] = span
		}
	}
	if refiled[hotBlock] == kws[hotBlock] {
		t.Fatalf("%q has one run", pat)
	}
	ungeneric[hotBlock] = kwSpan{}
	whole, hot := build(kws, all), build(kws, hotSet)
	// twice is whole with the rule the second filing state files replaced by
	// the rule the first one files.
	twice := slices.Clone(whole)
	at := firstOutputs(t, twice, len(rules), crc)
	copy(twice[at[1]:at[1]+4], twice[at[0]:at[0]+4])

	if _, err := NewListAttached("v", rules, crc, whole, hot); err != nil {
		t.Fatalf("pristine pair refused: %v", err)
	}
	if _, err := NewListAttached("v", rules, crc, whole, whole); err != nil {
		t.Fatalf("a hot region that is the whole one refused: %v", err)
	}
	for name, pair := range map[string][2][]byte{
		"hot rule absent from the whole automaton": {build(kws, except(all, hotDomainBlock)), hot},
		"hot rule filed under another run":         {whole, build(refiled, hotSet)},
		"hot files a rule the whole one has not":   {whole, build(ungeneric, hotSet)},
		"keyword-less rule not hot":                {whole, build(kws, except(hotSet, generic))},
		"exception not hot":                        {whole, build(kws, except(hotSet, exception))},
		"rule in no automaton and not indexable":   {build(kws, except(all, hotBlock)), build(kws, except(hotSet, hotBlock))},
		"rule filed twice":                         {twice, hot},
		"rule filed twice, flat":                   {twice, nil},
		"the hot region alone, as a flat list":     {hot, nil},
		"the pair the wrong way round":             {hot, whole},
	} {
		_, err := NewListAttached("v", rules, crc, pair[0], pair[1])
		if corruptReason(err) != "tier-invalid" || !isCorrupt(err) {
			t.Errorf("%s: err = %v, want tier-invalid", name, err)
		}
	}
	// What the index can serve, the whole region may leave out — of both.
	if _, err := NewListAttached("v", rules, crc, build(kws, except(all, hotDomainBlock)), build(kws, except(hotSet, hotDomainBlock))); err != nil {
		t.Fatalf("pair without a rule the index serves refused: %v", err)
	}
}

// TestIsHotRuleRange: an ordinal outside the list — -1 is DecideHits' no-match
// — is hot on neither kind of list; inside it, every rule of a flat list is.
func TestIsHotRuleRange(t *testing.T) {
	last, err := Parse("/ad/$domain=a.example")
	if err != nil {
		t.Fatal(err)
	}
	flat := NewList("r", append(benchRules(10), last))
	tiered := flat.CompileTiered(func(ord int) bool { return ord == 0 })
	for _, c := range []struct {
		ord          int
		flat, tiered bool
	}{
		{-1, false, false},
		{-1 << 40, false, false},
		{0, true, true},  // kept
		{1, true, false}, // a block nothing kept
		{2, true, false}, // an element-hiding rule: no lookup consults it
		{3, true, true},  // an exception
		{10, true, true}, // no run, a page domain: served from the index
		{11, false, false},
		{1 << 40, false, false},
	} {
		if got := flat.IsHotRule(c.ord); got != c.flat {
			t.Errorf("flat.IsHotRule(%d) = %v, want %v", c.ord, got, c.flat)
		}
		if got := tiered.IsHotRule(c.ord); got != c.tiered {
			t.Errorf("tiered.IsHotRule(%d) = %v, want %v", c.ord, got, c.tiered)
		}
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
	if n, fired := l.UsageProfile(); n != 3 || !slices.Equal(fired, [][2]uint64{{0, 2}, {1, 1}, {2, 2}}) {
		t.Fatalf("UsageProfile = %d, %v; want 3 HTTP rules, each fired", n, fired)
	}
	// Disabled lists record nothing and stay nil.
	off := NewList("off", l.Rules())
	if off.Usage() != nil {
		t.Fatal("usage bank present without EnableUsage")
	}
	if n, fired := off.UsageProfile(); n != 3 || fired == nil || len(fired) != 0 {
		t.Fatalf("UsageProfile without counters = %d, %v; want 3 HTTP rules, none fired", n, fired)
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
				if tot := usageTotal(list); tot < last {
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
	if got := usageTotal(list); got != want {
		t.Fatalf("per-ordinal counts sum %d != issued matches %d", got, want)
	}
}

// usageTotal is the merged hit count across all of l's rules.
func usageTotal(l *List) uint64 {
	var sum uint64
	for _, c := range l.Usage().Counts() {
		sum += c
	}
	return sum
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
