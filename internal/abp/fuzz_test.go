package abp

import (
	"slices"
	"strings"
	"testing"
)

// diffFixed is the rule mix every differential case compiles its own rule
// in with, so candidate ordering, exception precedence, the generic bucket
// and keyword selection among rules that share runs are all exercised.
var diffFixed = []string{
	"||vendor.com^$third-party",
	"/ads.js?",
	"@@||benign.com/ads.js",
	"/detect007*.js$script",
	"||cdn.example^adsbygoogle^",
	"||host1.example/js/advertisement.js",
	"||host2.example/js/advertisement.js",
	"@@||host2.example/js/advertisement.js$domain=host2.example",
	"/js/advertisement.js$domain=host1.example",
}

// nonASCIICases are the inputs the byte-literal folding rule decides: URL
// and pattern bytes are matched as written and only A–Z folds, on both
// sides, so a non-ASCII byte is an ordinary non-keyword byte to the
// automaton and an ordinary literal to the rule matcher. want is the
// verdict of diffFixed plus the case's own rule. They seed
// FuzzMatchDifferential and are the table of TestNonASCIIURLs.
var nonASCIICases = []struct {
	line, url string
	want      Decision
}{
	// Kelvin sign (U+212A): Unicode lowers it to 'k', the wire does not.
	{"/kelvin-probe.js", "http://example.com/\u212aelvin-probe.js", NoMatch},
	{"/kelvin-probe.js", "http://example.com/KELVIN-probe.js", Blocked},
	// In a pattern it is the same literal: the rule matches the URL that
	// spells it, not the 'k' Unicode lowering used to make of it…
	{"/\u212aelvin.js", "http://example.com/kelvin.js", NoMatch},
	{"/\u212aelvin.js", kelvinPatternURL, Blocked},
	// …with or without $match-case, where nothing folds.
	{"/ABC\u212a$match-case", "http://example.com/ABC\u212a", Blocked},
	{"/ABC\u212a$match-case", "http://example.com/ABCK", NoMatch},
	// Dotted İ (U+0130), which Unicode lowers to 'i'.
	{"/istanbul.js", "http://example.com/\u0130stanbul.js", NoMatch},
	{"/istanbul.js", "http://example.com/ISTANBUL.js", Blocked},
	// Raw UTF-8 (é, É, ü): equal bytes match, the A–Z around them fold.
	{"/caf\u00e9.png", "http://example.com/CAF\u00e9.PNG", Blocked},
	{"/caf\u00e9.png", "http://example.com/CAF\u00c9.png", NoMatch},
	// An upper-case non-ASCII letter in a pattern stays as written: the
	// rule matches the URL it literally names and no other spelling.
	{"/CAF\u00c9.png", "http://example.com/caf\u00c9.PNG", Blocked},
	{"/CAF\u00c9.png", "http://example.com/caf\u00e9.png", NoMatch},
	{"@@||example.com/ok/\u00fcber", "http://example.com/ok/\u00fcber.js", Allowed},
	{"/caf%c3%a9.png", "http://example.com/caf%C3%A9.png", Blocked},
	// Bytes that are not UTF-8 at all: a lone 0xFF, a truncated sequence.
	{"/ads.js?", "http://numerama.com/\xff/ads.js?v=2", Blocked},
	{"/ads.js?", "http://numerama.com/ads\xff.js?v=2", NoMatch},
	{"/detect007*.js$script", "http://cdn.net/detect007\xe2\x84.js", Blocked},
	// A keyword split by a non-ASCII byte is two short runs, not one hit.
	{"/js/advertisement.js", "http://host9.example/js/adver\u00e9tisement.js", NoMatch},
	{"/js/adver\u00e9tisement.js", "http://host9.example/js/adver\u00e9tisement.js", Blocked},
	// 5 KB, mixed case, non-ASCII: the fold outgrows the context's buffer.
	{"/ads.js?", "http://x.com/" + strings.Repeat("Ab\u00e9/", 1000) + "ADS.js?x", Blocked},
	{"/ads.js?", "http://x.com/" + strings.Repeat("Ab\u00e9/", 1000) + "ADS.jsx", NoMatch},
}

// kelvinPatternURL is the one nonASCIICases URL only a freshly compiled
// list answers: the snapshots in testdata were compiled when patterns were
// Unicode-lowered and index "/\u212aelvin.js" under "kelvin", a run this
// URL does not contain (DESIGN §12 "Folding rule"). Tests that probe those
// snapshots skip it.
const kelvinPatternURL = "http://example.com/\u212aELVIN.js"

// diffEngine is one way a List can come to exist.
type diffEngine struct {
	name string
	l    *List
}

// diffEngines compiles rules every way there is — built, reattached from
// its own bytes, tiered with nothing kept, everything and a mix, and a
// (whole, hot) pair reattached — with the built list first: the oracle runs on that one.
func diffEngines(t *testing.T, rules []*Rule, salt int) []diffEngine {
	t.Helper()
	list := NewList("diff", rules)
	re, err := NewListAttached("diff", rules, list.rulesCRC, list.AutomatonBytes(), nil)
	if err != nil {
		t.Fatalf("round-trip rejected own bytes: %v", err)
	}
	mixed := list.CompileTiered(func(ord int) bool { return (ord+salt)%3 == 0 })
	tre, err := NewListAttached("diff", rules, list.rulesCRC, mixed.AutomatonBytes(), mixed.HotAutomatonBytes())
	if err != nil {
		t.Fatalf("tier round-trip rejected own bytes: %v", err)
	}
	return []diffEngine{
		{"flat", list},
		{"reattached", re},
		{"tiered-cold", list.CompileTiered(nil)},
		{"tiered-hot", list.CompileTiered(func(int) bool { return true })},
		{"tiered-mix", mixed},
		{"tiered-reattached", tre},
	}
}

// assertMatchesOracle holds every automaton path of l to oracle's linear
// scan on one request: MatchRequest's verdict and winner, AppendHits' full
// hit list in order, DecideHits, and AppendHitsHot, which must be exactly
// the hits on hot rules — so it may differ from the oracle solely by a
// non-hot block reading as no-match. oracle and l hold the same rules in the same
// order; l may be a reloaded copy, so rules are identified by ordinal.
func assertMatchesOracle(t *testing.T, name string, oracle, l *List, q Request) {
	t.Helper()
	wd, wr := oracle.MatchRequestLinear(q)
	want := oracle.MatchingHTTPRulesLinear(q)
	if d, r := l.MatchRequest(q); d != wd || raw(r) != raw(wr) {
		t.Fatalf("%s: url %q page %q: MatchRequest (%v, %s) != linear (%v, %s)",
			name, q.URL, q.PageDomain, d, raw(r), wd, raw(wr))
	}
	hits := l.AppendHits(nil, q)
	if len(hits) != len(want) {
		t.Fatalf("%s: url %q page %q: %d hits != linear %d", name, q.URL, q.PageDomain, len(hits), len(want))
	}
	var hotWant []Hit
	for i, h := range hits {
		if l.Rules()[h.Ord] != h.Rule || oracle.Rules()[h.Ord] != want[i] {
			t.Fatalf("%s: url %q page %q: hit %d is rule %d %q, linear has %q",
				name, q.URL, q.PageDomain, i, h.Ord, h.Rule.Raw, want[i].Raw)
		}
		if l.IsHotRule(h.Ord) {
			hotWant = append(hotWant, h)
		} else if h.Rule.Kind != KindHTTPBlock {
			t.Fatalf("%s: url %q page %q: hit %d, %q, is no block and not hot", name, q.URL, q.PageDomain, i, h.Rule.Raw)
		}
	}
	if d, r, ord := DecideHits(hits); d != wd || raw(r) != raw(wr) || r != nil && l.Rules()[ord] != r {
		t.Fatalf("%s: url %q page %q: DecideHits (%v, %s, %d) != linear (%v, %s)",
			name, q.URL, q.PageDomain, d, raw(r), ord, wd, raw(wr))
	}
	hot := l.AppendHitsHot(nil, q)
	if !slices.Equal(hot, hotWant) {
		t.Fatalf("%s: url %q page %q: hot-only hits %v != hot-tier hits %v", name, q.URL, q.PageDomain, hot, hotWant)
	}
	if d, _, _ := DecideHits(hot); d != wd && !(wd == Blocked && d == NoMatch) {
		t.Fatalf("%s: url %q page %q: hot-only verdict %v, linear %v", name, q.URL, q.PageDomain, d, wd)
	}
}

// FuzzMatchDifferential throws arbitrary (rule line, URL, page domain)
// triples at the one engine and its one oracle and fails on any
// divergence: the compiled automaton — flat, reattached, and tiered every
// way (diffEngines) — must return the linear scan's decision, winning rule
// and full hit list through MatchRequest, AppendHits and AppendHitsHot
// (assertMatchesOracle). The fuzzed rule is compiled in with diffFixed, so
// it also changes the run counts keyword selection ranks by. `make
// fuzz-smoke` runs it for ten seconds; plain `go test` runs the seeds.
func FuzzMatchDifferential(f *testing.F) {
	f.Add("||pagefair.com^$third-party", "http://pagefair.com/score.js", "news.com")
	f.Add("/ads.js?", "http://numerama.com/ads.js?v=2", "numerama.com")
	f.Add("@@||numerama.com/ads.js", "http://numerama.com/ads.js?v=2", "numerama.com")
	f.Add("/detect*.js$script", "http://cdn.net/detect-v2.js", "site.com")
	f.Add("||example.com^", "http://user:pw@example.com/x", "page.com")
	f.Add("|http://x.com/a.js|", "http://x.com/a.js", "x.com")
	f.Add("/a*a*a*b", "http://x.com/aaaaaaac", "x.com")
	f.Add("*^*", "http://x.com/", "x.com")
	// Shared path, distinct hosts: rarity moves these rules off the path run.
	f.Add("||host3.example/js/advertisement.js", "https://host3.example/js/advertisement.js", "host3.example")
	f.Add("||host3.example/js/advertisement.js", "https://HOST1.example/JS/Advertisement.js?x=host3", "Host1.Example")
	f.Add("/js/advertisement.js$domain=host2.example", "https://host9.example/js/advertisement.js", "www.HOST2.example")
	f.Add("|https://advertisement.", "https://advertisement.host1.example/js/", "x.com")
	// The page-domain index: diffFixed's $domain= rules are filed there, and
	// these join them — several domains, a negated one, no run at all, a bare
	// TLD; pages that are a subdomain, fully qualified, excluded, empty.
	f.Add("/js/advertisement.js$domain=host2.example|other.example|~www.host2.example", "https://host9.example/js/advertisement.js", "cdn.HOST2.example")
	f.Add("/js/advertisement.js$domain=host2.example|~www.host2.example", "https://host9.example/js/advertisement.js", "a.www.host2.example")
	f.Add("*$script,domain=host1.example", "https://x.com/", "Sub.Host1.Example.")
	f.Add("@@/js/advertisement.js$domain=example", "https://host1.example/js/advertisement.js", "host1.example")
	f.Add("@@*$domain=host1.example", "https://host1.example/js/advertisement.js", "")
	for _, c := range nonASCIICases {
		f.Add(c.line, c.url, "page.com")
	}
	// The guards: the run in and out of its pattern's context — at either end
	// of the URL, twice with the second occurrence the one in context, in upper
	// case, under $match-case, beside '*', '^' and every anchor.
	f.Add("-ad-300x250.3", "http://x.com/img/-ad-300x250.3x?-AD-300X250.3", "x.com")
	f.Add("/advertisement.", "advertisement.js", "x.com")
	f.Add("/advertisement", "http://x.com/advertisement", "x.com")
	f.Add("||host1.exam^", "https://host1.example/js/advertisement.js", "x.com")
	f.Add("/JS/Advertisement.JS$match-case", "https://host1.example/JS/Advertisement.JS", "x.com")
	f.Add("^advertisement*detect007^", "https://host1.example/js/advertisement.js?detect007", "x.com")
	f.Add("|https://host1.example/js/advertisement.js|", "https://host1.example/js/advertisement.js", "x.com")

	f.Fuzz(func(t *testing.T, line, url, page string) {
		var rules []*Rule
		for _, ln := range append(slices.Clip(diffFixed), line) {
			if r, err := Parse(ln); err == nil {
				rules = append(rules, r)
			}
		}
		q := Request{URL: url, Type: TypeScript, PageDomain: page}
		engines := diffEngines(t, rules, len(url))
		for _, e := range engines {
			assertMatchesOracle(t, e.name, engines[0].l, e.l, q)
		}
	})
}

func raw(r *Rule) string {
	if r == nil {
		return "<nil>"
	}
	return r.Raw
}
