package abp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"adwars/internal/artifact"
)

func buildList(t *testing.T, name string, lines ...string) *List {
	t.Helper()
	var rules []*Rule
	for _, l := range lines {
		rules = append(rules, mustParse(t, l))
	}
	return NewList(name, rules)
}

// buildHiding is buildList's element hiding index.
func buildHiding(t *testing.T, lines ...string) *Hiding {
	t.Helper()
	return NewHiding(buildList(t, "test", lines...))
}

func TestListExceptionOverridesBlock(t *testing.T) {
	// The numerama.com example of Code 7 in the paper: /ads.js? blocks the
	// bait everywhere, the exception allows it on numerama.com.
	l := buildList(t, "test", "/ads.js?", "@@||numerama.com/ads.js")
	d, r := l.MatchRequest(req("http://numerama.com/ads.js?v=1", "numerama.com", TypeScript))
	if d != Allowed {
		t.Fatalf("decision = %v, want allowed", d)
	}
	if r == nil || !r.IsException() {
		t.Fatalf("deciding rule = %v, want the exception", r)
	}
	d, _ = l.MatchRequest(req("http://other.com/ads.js?v=1", "other.com", TypeScript))
	if d != Blocked {
		t.Fatalf("decision = %v, want blocked elsewhere", d)
	}
}

func TestListNoMatch(t *testing.T) {
	l := buildList(t, "test", "||pagefair.com^$third-party")
	d, r := l.MatchRequest(req("http://benign.com/app.js", "benign.com", TypeScript))
	if d != NoMatch || r != nil {
		t.Fatalf("got %v/%v, want no-match/nil", d, r)
	}
}

func TestListHiddenElements(t *testing.T) {
	h := buildHiding(t,
		"smashboards.com###noticeMain",
		"###genericbanner",
		"example.com#@##genericbanner",
	)
	elems := []*Element{
		el("div", "noticeMain"),
		el("div", "genericbanner"),
		el("div", "content"),
	}
	hidden := h.HiddenElements("smashboards.com", elems)
	if len(hidden) != 2 {
		t.Fatalf("hidden = %v, want elements 0 and 1", hidden)
	}
	if _, ok := hidden[0]; !ok {
		t.Error("noticeMain should be hidden on smashboards.com")
	}
	// On example.com the exception rule unhides the generic banner.
	hidden = h.HiddenElements("example.com", elems)
	if _, ok := hidden[1]; ok {
		t.Error("exception rule should unhide genericbanner on example.com")
	}
	// noticeMain rule is domain-scoped, inert elsewhere.
	if _, ok := hidden[0]; ok {
		t.Error("domain-scoped rule must not fire on example.com")
	}
}

func TestListCountByClass(t *testing.T) {
	l := buildList(t, "test",
		"||a.com^",
		"||b.com^$domain=c.com",
		"/x.js$domain=d.com",
		"/y.js",
		"e.com###z",
		"###w",
	)
	got := l.CountByClass()
	want := map[Class]int{
		ClassHTTPAnchor: 1, ClassHTTPAnchorTag: 1, ClassHTTPTag: 1,
		ClassHTTPPlain: 1, ClassHTMLWithDomain: 1, ClassHTMLNoDomain: 1,
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("class %v: got %d, want %d", c, got[c], n)
		}
	}
}

func TestListDomains(t *testing.T) {
	l := buildList(t, "test",
		"||pagefair.com^$third-party",
		"smashboards.com###noticeMain",
		"/generic.js",
	)
	got := l.Domains()
	want := []string{"pagefair.com", "smashboards.com"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Domains() = %v, want %v", got, want)
	}
}

func TestRulesForDomain(t *testing.T) {
	l := buildList(t, "test",
		"yocast.tv###notice",
		"||yocast.tv/ads.js",
		"||pagefair.com^$third-party",
		"||pagefair.com/static/d.min.js$domain=majorleaguegaming.com",
	)
	got := l.RulesForDomain("yocast.tv")
	if len(got) != 2 {
		t.Fatalf("yocast.tv rules = %v", got)
	}
	// The anchor+tag rule targets both pagefair.com and the tagged site.
	if got := l.RulesForDomain("majorleaguegaming.com"); len(got) != 1 {
		t.Fatalf("mlg rules = %v", got)
	}
	if got := l.RulesForDomain("pagefair.com"); len(got) != 2 {
		t.Fatalf("pagefair rules = %v", got)
	}
	if got := l.RulesForDomain("absent.com"); len(got) != 0 {
		t.Fatalf("absent rules = %v", got)
	}
}

func TestExceptionDomainSplit(t *testing.T) {
	l := buildList(t, "test",
		"@@||numerama.com/ads.js",
		"@@||allowed.com^$script",
		"||blocked.com^",
	)
	exc, non := l.ExceptionDomainSplit()
	if len(exc) != 2 || len(non) != 1 {
		t.Fatalf("split = %v / %v", exc, non)
	}
}

func TestAppendHits(t *testing.T) {
	l := buildList(t, "test", "/ads.js?", "||numerama.com^", "###x")
	hits := l.AppendHits(nil, req("http://numerama.com/ads.js?1", "numerama.com", TypeScript))
	if len(hits) != 2 || hits[0].Ord != 0 || hits[1].Ord != 1 {
		t.Fatalf("hits = %v, want the two HTTP rules in insertion order", hits)
	}
}

func TestParseAndBuild(t *testing.T) {
	body := "! Anti-Adblock Killer\n||pagefair.com^$third-party\nyocast.tv###notice\nbroken###\n"
	l, errs := ParseAndBuild("aak", body)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want one (the broken selector)", errs)
	}
}

func TestKeywordIndexAgreesWithLinearScan(t *testing.T) {
	lines := []string{
		"||pagefair.com^$third-party",
		"||blockadblock.com^",
		"/advertising.js",
		"/ads.js?",
		"||npttech.com/advertising.js",
		"@@||numerama.com/ads.js",
		"/detector*.js$script",
	}
	l := buildList(t, "test", lines...)
	urls := []string{
		"http://www.npttech.com/advertising.js",
		"http://pagefair.com/score",
		"http://numerama.com/ads.js?x",
		"http://benign.com/app.js",
		"http://x.com/detector-v9.js",
	}
	for _, u := range urls {
		q := req(u, "page.com", TypeScript)
		decision, _ := l.MatchRequest(q)
		// Linear reference: exceptions first, then blocks.
		var want Decision
		for _, line := range lines {
			r := mustParse(t, line)
			if r.IsException() && r.MatchRequest(q) {
				want = Allowed
				break
			}
		}
		if want == NoMatch {
			for _, line := range lines {
				r := mustParse(t, line)
				if !r.IsException() && r.MatchRequest(q) {
					want = Blocked
					break
				}
			}
		}
		if decision != want {
			t.Errorf("url %q: index says %v, linear scan says %v", u, decision, want)
		}
	}
}

func TestElemHideException(t *testing.T) {
	h := buildHiding(t,
		"###genericbanner",
		"video.example###notice",
		"@@||video.example^$elemhide",
	)
	elems := []*Element{el("div", "genericbanner"), el("div", "notice")}
	// $elemhide disables every hiding rule on the excepted domain.
	if hidden := h.HiddenElements("video.example", elems); len(hidden) != 0 {
		t.Fatalf("elemhide exception ignored: %v", hidden)
	}
	// Other domains are unaffected.
	if hidden := h.HiddenElements("other.example", elems); len(hidden) != 1 {
		t.Fatalf("generic rule should fire elsewhere: %v", hidden)
	}
}

func TestGenericHideException(t *testing.T) {
	h := buildHiding(t,
		"###genericbanner",
		"news.example###notice",
		"@@||news.example^$generichide",
	)
	elems := []*Element{el("div", "genericbanner"), el("div", "notice")}
	hidden := h.HiddenElements("news.example", elems)
	if _, ok := hidden[0]; ok {
		t.Error("$generichide must disable the domain-less rule")
	}
	if _, ok := hidden[1]; !ok {
		t.Error("$generichide must keep domain-specific rules active")
	}
}

// TestGenericHideSkipsExclusionOnlyRules: a hiding rule that only
// excludes domains names none to hide on, so Adblock Plus counts it generic
// (isGeneric) and $generichide turns it off, as it does "##.ad".
func TestGenericHideSkipsExclusionOnlyRules(t *testing.T) {
	h := buildHiding(t,
		"~other.example###exclusiononly",
		"news.example,~a.news.example###scoped",
		"@@||news.example^$generichide",
	)
	elems := []*Element{el("div", "exclusiononly"), el("div", "scoped")}
	hidden := h.HiddenElements("news.example", elems)
	if _, ok := hidden[0]; ok {
		t.Error("$generichide must disable a rule with only ~ exclusions")
	}
	if _, ok := hidden[1]; !ok {
		t.Error("$generichide must keep a rule that names a domain active")
	}
	// Without the toggle the exclusion-only rule hides as before.
	if hidden := h.HiddenElements("site.example", elems); len(hidden) != 1 || hidden[0] == nil {
		t.Errorf("site.example: hidden = %v, want element 0 only", hidden)
	}
}

func TestElemHideDisabledLookup(t *testing.T) {
	h := buildHiding(t, "@@||a.example^$elemhide", "@@||b.example^$generichide")
	all, generic := h.ElemHideDisabled("a.example")
	if !all || generic {
		t.Fatalf("a.example: all=%v generic=%v", all, generic)
	}
	all, generic = h.ElemHideDisabled("b.example")
	if all || !generic {
		t.Fatalf("b.example: all=%v generic=%v", all, generic)
	}
	all, generic = h.ElemHideDisabled("c.example")
	if all || generic {
		t.Fatalf("c.example should be unaffected")
	}
}

// queryURLs extends the bench mix with queries that reach every path of a
// lookup: an exception over a block, blocks low and high in the list, a
// keyword whose options veto, a pure miss, a shared path on distinct hosts
// and a non-ASCII URL.
func queryURLs() []string {
	urls := append([]string(nil), benchURLs...)
	return append(urls,
		"http://benign0003.com/ads.js",    // exception over block
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

// queryMix asks for every queryURLs URL as a script from a third-party page
// and as an image from its own host.
func queryMix() []Request {
	urls := queryURLs()
	qs := make([]Request, 0, 2*len(urls))
	for _, u := range urls {
		qs = append(qs,
			Request{URL: u, Type: TypeScript, PageDomain: "page.com"},
			Request{URL: u, Type: TypeImage, PageDomain: HostOf(u)},
		)
	}
	return qs
}

// assertAnswersAsOracle holds l — oracle's rules, however compiled or loaded
// — to oracle's linear scan across the whole query mix.
func assertAnswersAsOracle(t *testing.T, name string, oracle, l *List) {
	t.Helper()
	for _, q := range queryMix() {
		assertMatchesOracle(t, name, oracle, l, q)
	}
}

// probeCounts is what usage counters read after one AppendHits and one
// MatchRequest of every query of the mix: probes made, candidates verified.
func probeCounts(l *List) (probes, candidates uint64) {
	l.usage = newUsage(l.Len())
	defer func() { l.usage = nil }()
	for _, q := range queryMix() {
		l.AppendHits(nil, q)
		l.MatchRequest(q)
	}
	return l.usage.Probes()
}

// TestTieredDifferential: CompileTiered, kept for the benchmark, copies its
// receiver whatever keep says. Freshly made and after a trip through the
// snapshot, the copy answers as the linear oracle with exactly the
// receiver's probes and candidates, shares its automaton, and counts no
// usage of the receiver's.
func TestTieredDifferential(t *testing.T) {
	plain := NewList("tier", benchRules(2000))
	probes, cands := probeCounts(plain)
	if probes != uint64(2*len(queryMix())) || cands == 0 {
		t.Fatalf("flat list: %d probes, %d candidates over %d queries", probes, cands, len(queryMix()))
	}
	plain.EnableUsage()
	defer func() { plain.usage = nil }()
	for name, keep := range map[string]func(int) bool{
		"none":     nil,
		"all":      func(int) bool { return true },
		"stripe-2": func(ord int) bool { return ord%2 == 0 },
	} {
		c := plain.CompileTiered(keep)
		if c.auto != plain.auto || c.Usage() != nil {
			t.Fatalf("%s: the copy has its own automaton (%v) or the receiver's usage (%v)", name, c.auto != plain.auto, c.Usage() != nil)
		}
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{c}})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ParseListsSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for stage, l := range map[string]*List{"compiled": c, "reloaded": snap.Lists[0]} {
			if p, c := probeCounts(l); p != probes || c != cands {
				t.Errorf("%s %s: %d probes, %d candidates; the receiver makes %d, %d", name, stage, p, c, probes, cands)
			}
			assertAnswersAsOracle(t, name+" "+stage, plain, l)
		}
	}
}

// TestTieredHistoryDifferential: a history's in-force list, and
// CompileTiered's copy of it, answer as the linear oracle at every revision.
func TestTieredHistoryDifferential(t *testing.T) {
	all := benchRules(900)
	h := NewHistory("tier-history")
	for i, cut := range []int{150, 400, 900} {
		h.Append(day(2014, time.Month(1+i), 1), all[:cut])
	}
	for _, at := range []time.Time{day(2014, 1, 15), day(2014, 2, 15), day(2014, 6, 1)} {
		l := h.ListAt(at)
		assertAnswersAsOracle(t, at.Format("2006-01"), l, l)
		assertAnswersAsOracle(t, at.Format("2006-01")+" copy", l, l.CompileTiered(func(ord int) bool { return ord%7 == 3 }))
	}
}

// TestTieredSnapshotRoundTrip: SaveListsSnapshotTiered, kept for the
// benchmark, writes what SaveListsSnapshot does — each list's rules and its
// one automaton, nothing else — and the lists reload with their regions byte
// for byte and their answers.
func TestTieredSnapshotRoundTrip(t *testing.T) {
	plain := NewList("AAK", benchRules(1000))
	snap := &ListsSnapshot{Label: "tiered-rt", Lists: []*List{
		plain.CompileTiered(func(ord int) bool { return ord%4 == 0 }),
		NewList("CEL", benchRules(300)).CompileTiered(nil),
	}}
	dir := t.TempDir()
	tiered, flat := filepath.Join(dir, "tiered"), filepath.Join(dir, "flat")
	if err := SaveListsSnapshotTiered(tiered, snap); err != nil {
		t.Fatal(err)
	}
	if err := SaveListsSnapshot(flat, snap); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(tiered)
	b, _ := os.ReadFile(flat)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("the tiered writer's file is not the writer's")
	}
	_, secs, _, err := artifact.OpenSections(a)
	if err != nil || len(secs) != 4 {
		t.Fatalf("%d sections (err %v), want rules and automaton of two lists", len(secs), err)
	}
	got, err := LoadListsSnapshot(tiered)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got.Lists {
		if !bytes.Equal(l.AutomatonBytes(), snap.Lists[i].AutomatonBytes()) {
			t.Fatalf("list %d: region not byte-identical after the round trip", i)
		}
	}
	assertAnswersAsOracle(t, "reloaded", plain, got.Lists[0])
}

// TestRetiering: whatever list CompileTiered starts from — compiled, a copy,
// or attached from a snapshot — its copy holds the bytes the compiled list's
// automaton does.
func TestRetiering(t *testing.T) {
	plain := NewList("re", benchRules(1000))
	keep := func(ord int) bool { return ord%4 == 0 }
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{plain}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, from := range map[string]*List{"compiled": plain, "copy": plain.CompileTiered(nil), "attached": snap.Lists[0]} {
		again := from.CompileTiered(keep)
		if !bytes.Equal(again.AutomatonBytes(), plain.AutomatonBytes()) {
			t.Errorf("the copy of the %s list holds other bytes than the compiled list", name)
		}
		assertAnswersAsOracle(t, name, plain, again)
	}
}

// TestTieredValidation is the corruption matrix of attach: a region that
// files a rule twice, leaves out an HTTP rule the page-domain index cannot
// serve, or was compiled from a subset of the rules is refused as
// filing-invalid. Every region here is structurally sound
// (openAutomaton takes each), so nothing but attach stands between the region
// and a list that would miss rules; a region that leaves out only rules the
// index serves is taken.
func TestTieredValidation(t *testing.T) {
	rules := append(benchRules(500), buildList(t, "short", "/ad/", "/x1/").Rules()...)
	plain := NewList("v", rules)
	// Every rule under its longest run: each HTTP rule with a run is in the
	// automaton by keyword, whether or not it names a page domain.
	kws := longestRunKeywords(rules)
	crc := plain.rulesCRC
	// without builds the region with the rule at ord left out.
	without := func(ord int) []byte {
		k := slices.Clone(kws)
		k[ord] = kwByDomain
		return buildAutomaton(rules, k, nil, crc).Bytes()
	}
	pick := func(what string, want func(ord int, r *Rule) bool) int {
		for ord, r := range rules {
			if r.IsHTTP() && want(ord, r) {
				return ord
			}
		}
		t.Fatalf("the rules hold no %s", what)
		return -1
	}
	block := pick("keyworded block that names no page domain", func(ord int, r *Rule) bool {
		return r.Kind == KindHTTPBlock && len(r.Domains()) == 0 && !kws[ord].none()
	})
	domainBlock := pick("keyworded block that names a page domain", func(ord int, r *Rule) bool {
		return r.Kind == KindHTTPBlock && len(r.Domains()) > 0 && !kws[ord].none()
	})
	generic := pick("keyword-less rule", func(ord int, r *Rule) bool { return kws[ord].none() && len(r.Domains()) == 0 })
	whole := buildAutomaton(rules, kws, nil, crc).Bytes()
	// twice is whole with the rule the second filing state files replaced by
	// the rule the first one files.
	twice := slices.Clone(whole)
	at := firstOutputs(t, twice, len(rules), crc)
	copy(twice[at[1]:at[1]+4], twice[at[0]:at[0]+4])
	// half is the region of the first half of the rules alone.
	half := slices.Clone(kws)
	for ord := len(rules) / 2; ord < len(rules); ord++ {
		half[ord] = kwByDomain
	}

	if _, err := NewListAttached("v", rules, crc, whole); err != nil {
		t.Fatalf("pristine region refused: %v", err)
	}
	for name, region := range map[string][]byte{
		"keyworded rule in no automaton and not indexable": without(block),
		"keyword-less rule in no automaton":                without(generic),
		"rule filed twice":                                 twice,
		"the region of the first half of the rules":        buildAutomaton(rules, half, nil, crc).Bytes(),
	} {
		_, err := NewListAttached("v", rules, crc, region)
		if corruptReason(err) != "filing-invalid" || !isCorrupt(err) {
			t.Errorf("%s: err = %v, want filing-invalid", name, err)
		}
	}
	// What the index can serve, the region may leave out.
	l, err := NewListAttached("v", rules, crc, without(domainBlock))
	if err != nil {
		t.Fatalf("region without a rule the index serves refused: %v", err)
	}
	assertAnswersAsOracle(t, "indexed", plain, l)
}

// TestIsHotRuleRange: IsHotRule, kept for the benchmark, holds of every
// ordinal of the list and of no other — -1 is DecideHits' no-match — on a
// list and on CompileTiered's copy of it.
func TestIsHotRuleRange(t *testing.T) {
	last, err := Parse("/ad/$domain=a.example")
	if err != nil {
		t.Fatal(err)
	}
	flat := NewList("r", append(benchRules(10), last))
	for _, l := range []*List{flat, flat.CompileTiered(func(ord int) bool { return ord == 0 })} {
		for _, c := range []struct {
			ord  int
			want bool
		}{
			{-1, false},
			{-1 << 40, false},
			{0, true},
			{2, true}, // an element-hiding rule
			{10, true},
			{11, false},
			{1 << 40, false},
		} {
			if got := l.IsHotRule(c.ord); got != c.want {
				t.Errorf("IsHotRule(%d) = %v, want %v", c.ord, got, c.want)
			}
		}
	}
}

// TestTierStats: every HTTP rule reaches a probe one way — by keyword, by
// page domain, or as a generic candidate — and HotBytes, kept for the
// benchmark, is the one automaton's size, ColdBytes 0.
func TestTierStats(t *testing.T) {
	l := NewList("s", append(benchRules(1000), buildList(t, "dom", "/ad/$domain=a.example", "*$domain=b.example", "/ad/").Rules()...))
	st := l.TierStats()
	http := 0
	for _, r := range l.Rules() {
		if r.IsHTTP() {
			http++
		}
	}
	if st.HotBytes != len(l.AutomatonBytes()) || st.ColdBytes != 0 {
		t.Fatalf("HotBytes %d, ColdBytes %d; the automaton is %d bytes", st.HotBytes, st.ColdBytes, len(l.AutomatonBytes()))
	}
	if st.KeywordRules+st.DomainRules+st.GenericRules != http || st.KeywordRules == 0 || st.DomainRules == 0 || st.GenericRules == 0 {
		t.Fatalf("stats %+v over %d HTTP rules", st, http)
	}
	if st.GuardedRules == 0 || st.GuardedRules > st.KeywordRules {
		t.Fatalf("%d guarded rules of %d by keyword", st.GuardedRules, st.KeywordRules)
	}
	if c := l.CompileTiered(nil).TierStats(); c != st {
		t.Fatalf("the copy's stats %+v differ from %+v", c, st)
	}
}
