package abp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// guardLongRun is a run longer than a guard's length field holds: its rule
// keeps the bytes after the run and gives up the byte before.
var guardLongRun = strings.Repeat("longrun", 40)

// guardLines are families in which the guard, not the keyword, decides who is
// a candidate: one run under many continuations, the same run twice in one
// pattern, a run first or last in its pattern, '*' and '^' for neighbours,
// every anchor, $match-case with an upper-case continuation, bytes ≥ 0x80
// next to the run, a run past the length field.
func guardLines() []string {
	lines := []string{
		"/ads/ads.",
		"/ADS/ads_",
		"adserver/",
		"/adserver",
		"adserver",
		"/tracker*pixel^",
		"^pixel*tracker/",
		"*tracker^",
		"|https://adhost.",
		"||adhost.example^",
		"||adhost.ex^",
		".swf|",
		"|adserver|",
		"/BannerAd.JS$match-case",
		"/BannerAd.js$match-case",
		"/bannerad.j",
		"/cafébanneréx",
		"\xffbanner\xfe",
		"/" + guardLongRun + ".js",
		"_" + guardLongRun + ".jsx",
		"@@||adhost.example/ok/adserver.",
	}
	for _, tail := range []string{".3", ".30", ".3x", ".3.js", "_7", ".3$domain=~x.com", ".3^", ".3*"} {
		lines = append(lines, "-ad-300x250"+tail, "/adbanner"+strings.TrimLeft(tail, "."))
	}
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("-ad-300x250.%d", i), fmt.Sprintf("/adbanner_%d", i), fmt.Sprintf("||site%d.example^", i))
	}
	return lines
}

// guardURLs put the runs of guardLines everywhere a guard has to look, and
// where it must not: at the first and at the last byte of the URL, in upper
// case, next to bytes ≥ 0x80, inside a longer run of digits, twice with only
// the second occurrence in context.
func guardURLs() []string {
	return []string{
		"adserver/x.js",
		"adserver",
		"http://x.com/adserver",
		"http://x.com/my-adserver",
		"http://x.com/ADSERVER/",
		"http://x.com/ads/ads.js",
		"http://x.com/ads_/ADS/ADS_",
		"http://x.com/ads/x/ads.",
		"http://x.com/ads",
		"http://x.com/tracker/a/pixel?x",
		"http://x.com/tracker/a/pixel",
		"http://x.com/?pixel=1&tracker/",
		"http://x.com/tracker",
		"https://adhost.example/ok/adserver.js",
		"https://ADHOST.EXAMPLE/",
		"https://adhost.ex/",
		"https://adhost.examples/",
		"https://adhost-example/",
		"http://x.com/movie.swf",
		"http://x.com/movie.swf?x",
		"http://x.com/BannerAd.JS",
		"http://x.com/BannerAd.js",
		"http://x.com/bannerad.js",
		"http://x.com/cafébanneréx",
		"http://x.com/cafébannerÉx",
		"http://x.com/\xffBANNER\xfe",
		"http://x.com/banner",
		"http://x.com/" + guardLongRun + ".js",
		"http://x.com/_" + guardLongRun + ".jsx",
		guardLongRun + ".js",
		"http://x.com/img/-ad-300x250.3.js",
		"http://x.com/img/-AD-300X250.30",
		"http://x.com/img/-ad-300x250.3x?-ad-300x250.3",
		"http://x.com/img/-ad-300x250.3",
		"http://x.com/img/-ad-300x250.",
		"http://x.com/img/-ad-300x250",
		"http://x.com/adbanner_7.js",
		"http://x.com/adbanner_70?cb=1300x2507",
		"http://x.com/adbanner3",
		"http://site3.example/",
		"http://site39.example./",
		"http://site3.examples/?cb=8301234567890123456",
		"300x250.3",
		"",
	}
}

// TestGuardDifferential holds the guarded scan to the linear oracle
// everywhere the automaton is held to it — MatchRequest, AppendHits and
// DecideHits (assertMatchesOracle), freshly compiled, reattached and after a
// snapshot round trip — and the guards a load derives from the region to
// those the compile read off its selection, ordinal by ordinal.
func TestGuardDifferential(t *testing.T) {
	plain := buildList(t, "guard", guardLines()...)
	engines := diffEngines(t, plain.Rules())
	var lists []*List
	for _, e := range engines {
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
		engines = append(engines, diffEngine{engines[i].name + "-reloaded", l})
	}
	for _, e := range engines {
		if !slices.Equal(e.l.guards, plain.guards) {
			for ord := range plain.guards {
				if e.l.guards[ord] != plain.guards[ord] {
					t.Fatalf("%s: rule %d %q: guard %#x, the compile's %#x", e.name, ord, plain.rules[ord].Raw, e.l.guards[ord], plain.guards[ord])
				}
			}
		}
		if st := e.l.TierStats(); st.GuardedRules == 0 || st.GuardedRules >= st.KeywordRules {
			t.Fatalf("%s: %d of %d keyworded rules guarded; some patterns here are a bare run, most are not", e.name, st.GuardedRules, st.KeywordRules)
		}
	}
	decided := 0
	for _, u := range guardURLs() {
		for _, typ := range []RequestType{TypeScript, TypeImage} {
			q := Request{URL: u, Type: typ, PageDomain: "page.com"}
			for _, e := range engines {
				assertMatchesOracle(t, e.name, plain, e.l, q)
			}
		}
		if bare := unguarded(plain); candidates(bare, Request{URL: u}) > candidates(plain, Request{URL: u}) {
			decided++
		}
	}
	if decided < len(guardURLs())/2 {
		t.Fatalf("the guards took a candidate away on %d of %d URLs: the families do not exercise them", decided, len(guardURLs()))
	}
}

// unguarded is l with every guard admitting every occurrence: the probe as it
// was before the guards.
func unguarded(l *List) *List {
	bare := *l
	bare.guards = make([]guard, len(l.guards))
	return &bare
}

// TestGuardRefusesMisfiledRule: a region whose every structure is valid but
// in which two rules stand in each other's output lists — each reachable only
// under a run of the other's pattern, so both silently lost — loaded until
// the loader looked each rule's run up; it is filing-invalid now.
func TestGuardRefusesMisfiledRule(t *testing.T) {
	plain := buildList(t, "swap", "||alpha.example^", "/bravo/charlie.js", "@@||delta.example^", "/echo-foxtrot_")
	// Exchange the first two ordinals that lead an output list (no keyword
	// here ends another, so each list is one rule of the state's own).
	region := slices.Clone(plain.AutomatonBytes())
	at := firstOutputs(t, region, plain.Len(), plain.rulesCRC)
	le := binary.LittleEndian
	x, y := le.Uint32(region[at[0]:]), le.Uint32(region[at[1]:])
	le.PutUint32(region[at[0]:], y)
	le.PutUint32(region[at[1]:], x)
	if _, err := NewListAttached("swap", plain.Rules(), plain.rulesCRC, region); corruptReason(err) != "filing-invalid" {
		t.Errorf("region with two ordinals exchanged: err = %v, want filing-invalid", err)
	}
	if _, err := NewListAttached("swap", plain.Rules(), plain.rulesCRC, plain.AutomatonBytes()); err != nil {
		t.Fatalf("the region as compiled: %v", err)
	}
}

// FuzzGuard is the property the guarded scan rests on, for any pattern, any
// anchoring and any URL: when the rule's pattern matches the URL, every run
// of the pattern — selection may file the rule under any of them — occurs in
// the URL somewhere its guard admits.
func FuzzGuard(f *testing.F) {
	for _, line := range guardLines() {
		for _, u := range guardURLs()[:12] {
			f.Add(line, u)
		}
	}
	f.Add("/"+guardLongRun+".js", "http://x.com/"+guardLongRun+".js")
	f.Add("-ad-300x250.3", "http://x.com/img/-ad-300x250.3x?-AD-300X250.3")
	f.Fuzz(func(t *testing.T, line, url string) {
		r, err := Parse(line)
		if err != nil || !r.IsHTTP() {
			return
		}
		c := matchCtx{q: normalized(Request{URL: url})}
		if !r.matchURLCtx(&c) {
			return
		}
		pat := r.Pattern
		for i, j := nextKeywordRun(pat, 0); i >= 0; i, j = nextKeywordRun(pat, j) {
			g, admitted := ruleGuard(pat, kwSpan{uint32(i), uint32(j)}), false
			for end := j - i; end <= len(url) && !admitted; end++ {
				admitted = lowerASCII(url[end-(j-i):end]) == lowerASCII(pat[i:j]) && g.admits(url, end)
			}
			if !admitted {
				t.Fatalf("rule %q matches %q, but its run %q occurs nowhere its guard %#x admits", line, url, pat[i:j], g)
			}
		}
	})
}

// firstOutputs returns where in region each state that lists rules keeps the
// first of them — a rule of its own, its keyword ending there — as byte
// offsets, in state order; a test edits a valid region through them.
func firstOutputs(t *testing.T, region []byte, rules int, crc uint64) []int {
	t.Helper()
	a, err := openAutomaton(region, rules, crc)
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for s := range a.fail {
		if a.outIdx[s+1] > a.outIdx[s] {
			at = append(at, acHeaderSize+4*(4*int(a.numSlots)+1+int(a.outIdx[s])))
		}
	}
	if len(at) < 2 {
		t.Fatal("region files fewer than two rules")
	}
	return at
}
