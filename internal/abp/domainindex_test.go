package abp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// domainIndexLines is a list built to live in the page-domain index: rules
// that share a path and differ in $domain= alone, multi-domain options with a
// negation, exceptions scoped to a page, rules with no run at all — beside
// rules that stay under their runs (a run rarer than the domain, no domain,
// only a negated one) and 200 rules sharing one run and what stands next to
// it — no guard tells them apart — so that a request spills the candidate
// scratch.
func domainIndexLines() []string {
	lines := []string{
		"||vendor.example^$third-party",
		"/js/ads.js$domain=a.example|b.example|~sub.b.example",
		"@@/js/ads.js$script,domain=c.example",
		"@@||cdn.example/js/ads.js$domain=a.example",
		"*$script,domain=d.example",
		"^$image,domain=d.example|e.example",
		"*$script,domain=~d.example",
		"/rare-run-zq7.js$domain=a.example",
		"/banner/ads.js$domain=com",
		"/js/ads.js",
	}
	for i := 0; i < 60; i++ {
		lines = append(lines,
			fmt.Sprintf("/js/ads.js$domain=site%02d.example", i),
			fmt.Sprintf("/banner/ads.js$script,domain=site%02d.example|site%02d.example", i, (i+1)%60))
	}
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("-ad-300x250.7$domain=~x%d.com", i))
	}
	return lines
}

func domainIndexQueries() []Request {
	urls := []string{
		"https://cdn.example/js/ads.js",
		"https://other.example/banner/ads.js?x=1",
		"https://vendor.example/img/-ad-300x250.7.js",
		"https://other.example/rare-run-zq7.js",
		"https://other.example/app.js",
	}
	pages := []string{
		"a.example", "b.example", "sub.b.example", "deep.sub.b.example", "www.c.example",
		"d.example", "e.example", "site07.example", "WWW.Site59.Example", "A.EXAMPLE.",
		"notsite07.example", "example", "x.com", "x7.com", "unrelated.net", ".", "",
	}
	var qs []Request
	for _, u := range urls {
		for _, p := range pages {
			qs = append(qs, Request{URL: u, Type: TypeScript, PageDomain: p}, Request{URL: u, Type: TypeImage, PageDomain: p})
		}
	}
	return qs
}

// TestDomainIndexDifferential holds the page-domain index to the linear
// oracle everywhere the automaton is held to it: MatchRequest, AppendHits,
// DecideHits and AppendHitsHot (assertMatchesOracle), flat and tiered, freshly
// compiled and after a snapshot round trip.
func TestDomainIndexDifferential(t *testing.T) {
	plain := buildList(t, "dom", domainIndexLines()...)
	if st := plain.TierStats(); st.DomainRules < 120 || st.GenericRules != 1 || st.KeywordRules < 200 {
		t.Fatalf("tier stats %+v: the list does not exercise all three classes", st)
	}
	engines := []diffEngine{
		{"flat", plain},
		{"tiered-cold", plain.CompileTiered(nil)},
		{"tiered-hot", plain.CompileTiered(func(int) bool { return true })},
		{"tiered-mix", plain.CompileTiered(func(ord int) bool { return ord%3 == 0 })},
	}
	var lists []*List
	for _, e := range engines {
		if e.l.dom != plain.dom || e.l.TierStats().DomainRules != plain.dom.rules {
			t.Fatalf("%s: the tiered copy does not share the list's index", e.name)
		}
		lists = append(lists, e.l)
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: lists})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range snap.Lists {
		if got, want := l.TierStats(), lists[i].TierStats(); got != want {
			t.Fatalf("%s reloaded: tier stats %+v, compiled %+v", engines[i].name, got, want)
		}
		engines = append(engines, diffEngine{engines[i].name + "-reloaded", l})
	}
	served, spilled := false, false
	for _, q := range domainIndexQueries() {
		for _, e := range engines {
			assertMatchesOracle(t, e.name, plain, e.l, q)
		}
		for _, h := range plain.AppendHits(nil, q) {
			served = served || plain.kws[h.Ord].byDomain()
		}
		spilled = spilled || candidates(plain, q) > matchScratchCap
	}
	if !served || !spilled {
		t.Fatalf("index served a hit: %v, scratch spilled: %v; want both", served, spilled)
	}
}

// runsOnly is the selection as it was before the page-domain index: every
// rule under the rarest run of its pattern, $domain= or not — selectKeywords'
// choice for the same patterns with their options taken away.
func runsOnly(rules []*Rule) []kwSpan {
	bare := make([]*Rule, len(rules))
	for ord, r := range rules {
		bare[ord] = &Rule{Kind: r.Kind, Pattern: r.Pattern}
	}
	kws, _ := selectKeywords(bare)
	return kws
}

// TestKeywordOnlyAutomatonStillServes is the compatibility gate for snapshots
// compiled before the page-domain index: regions with every rule under its
// run (runsOnly) differ from today's build, still attach,
// leave the index empty and answer as the linear oracle does — each rule
// served once, though the index would take it. What a region may not do is
// leave out a rule the index cannot serve.
func TestKeywordOnlyAutomatonStillServes(t *testing.T) {
	plain := buildList(t, "old", domainIndexLines()...)
	rules := plain.Rules()
	kws := runsOnly(rules)
	old := buildAutomaton(rules, kws, nil, plain.rulesCRC, nil)
	if bytes.Equal(old.Bytes(), plain.AutomatonBytes()) {
		t.Fatal("keyword-only and indexed builds coincide: the test exercises nothing")
	}
	hot := make([]bool, len(rules))
	for ord, r := range rules {
		hot[ord] = r.IsHTTP() && (r.Kind == KindHTTPException || kws[ord].none() || ord%2 == 0)
	}
	flat, err := NewListAttached("old", rules, plain.rulesCRC, old.Bytes(), nil)
	if err != nil {
		t.Fatalf("keyword-only automaton refused: %v", err)
	}
	tiered, err := NewListAttached("old", rules, plain.rulesCRC, old.Bytes(),
		buildAutomaton(rules, kws, nil, plain.rulesCRC, hot).Bytes())
	if err != nil {
		t.Fatalf("keyword-only tier pair refused: %v", err)
	}
	for _, l := range []*List{flat, tiered} {
		if st := l.TierStats(); st.DomainRules != 0 || st.KeywordRules <= plain.TierStats().KeywordRules {
			t.Fatalf("tiered=%v: tier stats %+v, want every rule with a run under it", l.Tiered(), st)
		}
		for _, q := range domainIndexQueries() {
			assertMatchesOracle(t, "keyword-only", plain, l, q)
		}
	}

	// Recompiled, the attached list gets today's layout.
	if again := tiered.CompileTiered(nil); again.TierStats().DomainRules != plain.dom.rules {
		t.Fatalf("recompiled tiers file %d rules by page domain, want %d", again.TierStats().DomainRules, plain.dom.rules)
	}

	for ord, r := range rules {
		if !r.IsHTTP() || kws[ord].none() {
			continue
		}
		member := make([]bool, len(rules))
		for i := range member {
			member[i] = i != ord
		}
		_, err := NewListAttached("old", rules, plain.rulesCRC, buildAutomaton(rules, kws, nil, plain.rulesCRC, member).Bytes(), nil)
		switch {
		case len(r.Domains()) > 0 && err != nil:
			t.Fatalf("region without %q refused, though the index serves it: %v", r.Raw, err)
		case len(r.Domains()) == 0 && (err == nil || !isCorrupt(err) || !strings.Contains(err.Error(), "tier-invalid")):
			t.Fatalf("region without %q: error %v, want tier-invalid", r.Raw, err)
		}
		if ord > 12 {
			break // one of every shape at the head of the list
		}
	}
}

// easyShaped generates n rule lines in the shapes of a deployed list — the
// whole-stack benchmark's mix (bench/corpus.go) at a smaller scale — and a
// pool of requests for them: hosts and pages drawn from the listed sites, one
// in three from the host's own page, three in four for an ad path, the rest a
// cache-busted CDN URL.
func easyShaped(seed int64, n, requests int) (lines []string, pool []Request) {
	rng := rand.New(rand.NewSource(seed))
	paths := []string{
		"/ads.js", "/js/ads.js", "/banner/ads.js", "/js/advertisement.js", "/detect.js",
		"/adbanner_7.js", "/img/-ad-300x250.3.js", "/ad/sponsor_12/frame.js", "/track/pixel.js",
	}
	site := func() string { return fmt.Sprintf("site%04d.example", rng.Intn(n/10)) }
	path := func() string {
		if rng.Intn(2) == 0 {
			return paths[rng.Intn(len(paths))]
		}
		return fmt.Sprintf("/assets/ads/unit_%d.js", rng.Intn(n))
	}
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 45:
			lines = append(lines, fmt.Sprintf("||%s^", site()))
		case p < 55:
			lines = append(lines, fmt.Sprintf("||%s%s", site(), path()))
		case p < 63:
			lines = append(lines, fmt.Sprintf("||%s%s$script,domain=%s", site(), path(), site()))
		case p < 66:
			lines = append(lines, fmt.Sprintf("%s$domain=%s", path(), site()))
		case p < 70:
			lines = append(lines, fmt.Sprintf("-ad-300x250.%d", rng.Intn(n/20)))
		case p < 74:
			lines = append(lines, fmt.Sprintf("/adbanner_%d", rng.Intn(n/20)))
		case p < 80:
			lines = append(lines, fmt.Sprintf("@@||%s%s", site(), path()))
		case p < 95:
			lines = append(lines, fmt.Sprintf("%s###ad-slot-%d", site(), i))
		default:
			lines = append(lines, fmt.Sprintf("##.ad-unit-%d", i))
		}
	}
	for i := 0; i < requests; i++ {
		host, page := site(), site()
		if i%3 == 2 {
			page = host
		}
		url := "https://" + host + paths[rng.Intn(len(paths))]
		if rng.Intn(4) == 0 {
			url = fmt.Sprintf("https://cdn.%s/assets/app.%08x.js?v=%d&cb=%d", host, rng.Uint32(), rng.Intn(100), rng.Int63())
		}
		pool = append(pool, Request{URL: url, Type: TypeScript, PageDomain: page})
	}
	return lines, pool
}

// TestCandidateBudget pins how many candidates the probe stage hands to
// verification on a fixed list and request pool: counts, not timings, so the
// test cannot flake, and it fails when selection regresses. Regions with
// every rule under its run (runsOnly, the layout before the page-domain
// index) are pinned beside today's: the guards cannot tell apart its
// path-only $domain= rules, which share run and context.
func TestCandidateBudget(t *testing.T) {
	lines, pool := easyShaped(42, 10_000, 1000)
	flat := buildList(t, "budget", lines...)
	runs := runsOnly(flat.rules)
	keywordOnly, err := NewListAttached("budget", flat.rules, flat.rulesCRC,
		buildAutomaton(flat.rules, runs, nil, flat.rulesCRC, nil).Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		l         *List
		sum, most int
	}{
		{"flat", flat, 6067, 18},
		{"tiered", flat.CompileTiered(func(ord int) bool { return ord%2 == 0 }), 6067, 18},
		{"keyword-only", keywordOnly, 24793, 62},
	} {
		sum, most := 0, 0
		for _, q := range pool {
			n := candidates(c.l, q)
			sum, most = sum+n, max(most, n)
		}
		if sum != c.sum || most != c.most {
			t.Errorf("%s: %d candidates over %d requests, at most %d for one; pinned %d and %d",
				c.name, sum, len(pool), most, c.sum, c.most)
		}
	}
}

// TestTrailingDotDomain: the fully qualified spelling of a page domain or a
// host is the domain, to $domain=, to $third-party and to the index.
func TestTrailingDotDomain(t *testing.T) {
	l := buildList(t, "dot",
		"/js/ads.js$domain=example.com",
		"/js/ads.js$domain=other.com",
		"/track$~third-party",
	)
	if !l.kws[0].byDomain() {
		t.Fatal("the $domain= rules are not in the index: the lookup is not exercised")
	}
	for page, want := range map[string][2]Decision{
		"example.com":      {Blocked, Blocked},
		"Example.COM.":     {Blocked, Blocked},
		"sub.example.com.": {Blocked, NoMatch},
		"example.com..":    {NoMatch, NoMatch},
		".":                {NoMatch, Blocked}, // no page: nothing is third party
		"":                 {NoMatch, Blocked},
	} {
		for i, url := range []string{"http://cdn.net/js/ads.js", "http://example.com./track"} {
			q := Request{URL: url, Type: TypeScript, PageDomain: page}
			if d, _ := l.MatchRequest(q); d != want[i] {
				t.Errorf("page %q url %q: %v, want %v", page, url, d, want[i])
			}
			assertMatchesOracle(t, "dot", l, l, q)
		}
	}
	for url, want := range map[string]string{
		"http://example.com./x":     "example.com",
		"http://Example.COM.:80/x":  "example.com",
		"http://./x":                "",
		"http://example.com../x":    "example.com.",
		"http://[::1]/x":            "::1",
		"http://user@example.com.?": "example.com",
	} {
		if got := HostOf(url); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", url, got, want)
		}
	}
	if (Request{URL: "http://example.com./x", PageDomain: "Example.com."}).IsThirdParty() {
		t.Error("example.com. is third party to Example.com.")
	}
}

// globMatchPlain is globMatch as the parent commit (bdbb5e1) had it: on a
// mismatch the star's span grows by one byte and the pattern is tried again,
// whatever it resumes with. FuzzGlobMatch holds globMatch to it.
func globMatchPlain(pat, s string, endAnchor, floating bool) bool {
	pi, si := 0, 0
	starPi, starSi := -1, 0
	if floating {
		starPi, starSi = 0, 0
	}
	for {
		if pi == len(pat) {
			if !endAnchor || si == len(s) {
				return true
			}
		} else {
			switch c := pat[pi]; c {
			case '*':
				pi++
				starPi, starSi = pi, si
				continue
			case '^':
				if si < len(s) && isSeparator(s[si]) {
					pi++
					si++
					continue
				}
				if si == len(s) {
					pi++
					continue
				}
			default:
				if si < len(s) && s[si] == c {
					pi++
					si++
					continue
				}
			}
		}
		if starPi < 0 || starSi >= len(s) {
			return false
		}
		starSi++
		pi, si = starPi, starSi
	}
}

// FuzzGlobMatch: the glob that resumes at its literal answers as the one
// that retries every offset, for every pattern, input and anchoring.
func FuzzGlobMatch(f *testing.F) {
	for _, pat := range []string{
		"", "*", "^", "a", "-ad-300x250.7", "/a*a*a*b", "*^*", "a^", "^a", "a*", "*a", "a**b^",
		"/café*\xff^", "\xc3*\xa9", "^^", "a*^", "ads.js?",
	} {
		for _, s := range []string{
			"", "a", "http://x.com/img/-ad-300x250.7.js", "http://x.com/aaaaaaac", "http://x.com/aaab",
			"http://x.com/café/\xff", "\xc3\xa9\xc3", "a-a^a", "http://numerama.com/ads.js?v=2",
		} {
			f.Add(pat, s, uint8(len(pat)+len(s)))
		}
	}
	f.Fuzz(func(t *testing.T, pat, s string, mode uint8) {
		endAnchor, floating := mode&1 != 0, mode&2 != 0
		if got, want := globMatch(pat, s, endAnchor, floating), globMatchPlain(pat, s, endAnchor, floating); got != want {
			t.Fatalf("globMatch(%q, %q, end=%v, floating=%v) = %v, the plain loop says %v", pat, s, endAnchor, floating, got, want)
		}
	})
}
