package abp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adwars/internal/artifact"
)

func isCorrupt(err error) bool { return errors.Is(err, artifact.ErrCorrupt) }

// byDomain is how selectedKeywords spells a rule filed under its page
// domains: no run holds a '$'.
const byDomain = "$domain"

// selectedKeywords spells selectKeywords' choice: each rule's run, folded,
// "" for none, byDomain for the page-domain index.
func selectedKeywords(rules []*Rule) []string {
	out := make([]string, len(rules))
	kws, _ := selectKeywords(rules)
	for ord, kw := range kws {
		if out[ord] = byDomain; !kw.byDomain() {
			out[ord] = lowerASCII(rules[ord].Pattern[kw.lo:kw.hi])
		}
	}
	return out
}

// TestSelectKeywords pins the selection rule: the run rarest in the list,
// ties to the longest and then the leftmost, ubiquitous runs last.
func TestSelectKeywords(t *testing.T) {
	// Alone in its list every run of a rule occurs once, so the tie-break
	// decides: the longest run, as the per-rule choice used to be.
	alone := map[string]string{
		"||pagefair.com^$third-party": "pagefair",
		"/ads.js?":                    "ads",
		"||a^":                        "",
		"*^*":                         "",
		// The star can extend "abdetect007" in the URL, but the automaton
		// needs no token boundaries — any URL this rule matches contains it.
		"/abdetect007*.js$script":    "abdetect007",
		"|http://x.com/detect.js|":   "detect",
		"||cdn.example^adsbygoogle^": "adsbygoogle",
		"/AdFrame/ADS.JS":            "adframe",
		"/ab^":                       "",
		"/left/here":                 "left",  // equal length: leftmost
		"|https://abc.":              "abc",   // shorter, but "https" is ubiquitous
		"|https://www.com/":          "https", // only ubiquitous runs: longest of them
		"smashboards.com###notice":   "",      // element hiding: never indexed
		// One rule names a.com and one spells "ads": the domain is no rarer.
		"/ads.js$domain=a.com":      "ads",
		"*$script,domain=a.com|b.c": byDomain, // no run, and not generic either
		"*$script,domain=~a.com":    "",       // no page domain to file it under
	}
	for line, want := range alone {
		if got := selectedKeywords([]*Rule{mustParse(t, line)})[0]; got != want {
			t.Errorf("selectKeywords(%q) = %q, want %q", line, got, want)
		}
	}

	// In a list, rarity beats length, and a page domain named by fewer rules
	// than spell the rule's rarest run beats the run: the most-named of a
	// rule's domains decides.
	rules := buildList(t, "rarity",
		"||host1.example/js/advertisement.js",
		"||host2.example/js/advertisement.js",
		"/js/advertisement.js$domain=page.example",
		"||solo.example^",
		"||duo.example/duo",
		"/js/advertisement.js$domain=page.example|other.example",
		"/js/advertisement.js$script,domain=other.example|~not.example",
		"||host3.example/js/advertisement.js$domain=other.example",
		"@@/js/advertisement.js$domain=other.example",
		"@@||rare9.example^$domain=other.example|third.example",
	).Rules()
	want := []string{"host1", "host2", byDomain, "solo", "duo", byDomain, byDomain, "host3", byDomain, "rare9"}
	for ord, got := range selectedKeywords(rules) {
		if got != want[ord] {
			t.Errorf("rule %q indexed under %q, want %q", rules[ord].Raw, got, want[ord])
		}
	}
}

// sharedPathLines are n blocking rules that differ only in the host: the
// shape whose longest run ("advertisement") is the worst keyword there is.
func sharedPathLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("||host%d.example/js/advertisement.js", i)
	}
	return lines
}

// candidates returns how many rules the probe stage hands to verification
// for a request — the number selection exists to keep small.
func candidates(l *List, q Request) int {
	c := matchCtx{q: normalized(q)}
	return len(l.probe(&c, l.auto))
}

// TestCandidatesSharedPath is the regression gate for the EasyList-scale
// pathology: thousands of rules that share a long path run and differ in
// the host must not all become candidates of a request for that path.
func TestCandidatesSharedPath(t *testing.T) {
	l := buildList(t, "shared", append(sharedPathLines(5000), "|https://zq7.")...)
	rules := l.Rules()
	for _, tiered := range []bool{false, true} {
		if tiered {
			l = l.CompileTiered(func(ord int) bool { return ord%7 == 0 })
		}
		url := "https://host1234.example/js/advertisement.js"
		if n := candidates(l, Request{URL: url}); n > 4 {
			t.Errorf("tiered=%v: %d candidates for %q, want <= 4", tiered, n, url)
		}
		if d, r := l.MatchRequest(Request{URL: url, Type: TypeScript}); d != Blocked || r != rules[1234] {
			t.Errorf("tiered=%v: %q: got (%v, %s), want rule 1234 to block", tiered, url, d, raw(r))
		}
		// The last rule must sit under "zq7", not under the "https" every
		// request here starts with.
		if n := candidates(l, Request{URL: "https://unlisted.example/"}); n != 0 {
			t.Errorf("tiered=%v: %d candidates for an unlisted https URL, want 0", tiered, n)
		}
	}
}

// TestBuildDeterministic: the same rules compile to the same bytes every
// time, flat and tiered. The rule set is all ties (every run occurs twice)
// so a choice that leaned on map iteration order would show.
func TestBuildDeterministic(t *testing.T) {
	var lines []string
	for i := 0; i < 400; i++ {
		lines = append(lines,
			fmt.Sprintf("||aaa%03d.example/bbb%03d/ccc%03d.js", i, i, i),
			fmt.Sprintf("/ccc%03d/bbb%03d/aaa%03d^", i, i, i))
	}
	first := buildList(t, "det", lines...)
	rules := first.Rules()
	keep := func(ord int) bool { return ord%3 == 0 }
	firstTiered := first.CompileTiered(keep)
	for i := 0; i < 5; i++ {
		l := NewList("det", rules)
		if !bytes.Equal(l.AutomatonBytes(), first.AutomatonBytes()) {
			t.Fatal("flat bytes differ across identical compiles")
		}
		tl := l.CompileTiered(keep)
		if !bytes.Equal(tl.AutomatonBytes(), firstTiered.AutomatonBytes()) ||
			!bytes.Equal(tl.HotAutomatonBytes(), firstTiered.HotAutomatonBytes()) {
			t.Fatal("tier bytes differ across identical compiles")
		}
	}
}

// longestRunKeywords is the per-rule choice every snapshot written before
// rarity ranking carries: each rule under the longest run of its pattern.
func longestRunKeywords(rules []*Rule) []kwSpan {
	kws := make([]kwSpan, len(rules))
	for ord, r := range rules {
		if !r.IsHTTP() {
			continue
		}
		for i, j := nextKeywordRun(r.Pattern, 0); i >= 0; i, j = nextKeywordRun(r.Pattern, j) {
			if uint32(j-i) > kws[ord].hi-kws[ord].lo {
				kws[ord] = kwSpan{uint32(i), uint32(j)}
			}
		}
	}
	return kws
}

// TestLongestRunAutomatonStillServes is the compatibility gate for
// snapshots compiled before rarity ranking: an automaton over longest-run
// keywords differs from today's build, still opens against the same
// rules, and gives the linear oracle's verdicts, winners and all-matches
// sets — flat and tiered.
func TestLongestRunAutomatonStillServes(t *testing.T) {
	rules := append(benchRules(2000), buildList(t, "shared", sharedPathLines(200)...).Rules()...)
	plain := NewList("old", rules)
	kws := longestRunKeywords(plain.Rules())
	old := buildAutomaton(plain.Rules(), kws, nil, plain.rulesCRC, nil)
	if bytes.Equal(old.Bytes(), plain.AutomatonBytes()) {
		t.Fatal("longest-run and rarest-run builds coincide: the test exercises nothing")
	}
	flat, err := NewListAttached("old", rules, plain.rulesCRC, old.Bytes(), nil)
	if err != nil {
		t.Fatalf("longest-run automaton refused: %v", err)
	}
	assertTierTransparent(t, "flat", plain, flat)

	hot := make([]bool, len(plain.Rules()))
	for ord, r := range plain.Rules() {
		hot[ord] = r.IsHTTP() && (r.Kind == KindHTTPException || kws[ord].none() || ord%2 == 0)
	}
	tiered, err := NewListAttached("old", rules, plain.rulesCRC, old.Bytes(),
		buildAutomaton(plain.Rules(), kws, nil, plain.rulesCRC, hot).Bytes())
	if err != nil {
		t.Fatalf("longest-run tier pair refused: %v", err)
	}
	assertTierTransparent(t, "tiered", plain, tiered)
}

// TestChosenKeywordIsSubstringOfMatches pins the soundness property the
// probe stage rests on: whenever a rule matches a URL, the keyword the
// list indexed it under occurs in the lower-cased URL as a plain substring.
func TestChosenKeywordIsSubstringOfMatches(t *testing.T) {
	rules := NewList("sound", benchRules(2000)).Rules()
	kws := selectedKeywords(rules)
	for _, u := range tierURLs() {
		q := Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
		low := strings.ToLower(u)
		for ord, r := range rules {
			if r.IsHTTP() && r.MatchRequest(q) && kws[ord] != byDomain && !strings.Contains(low, kws[ord]) {
				t.Errorf("rule %q matches %q but keyword %q is not a substring", r.Raw, u, kws[ord])
			}
		}
	}
}

// TestAutomatonRoundTrip proves the serialized region is self-contained:
// reattaching a list's own bytes (NewListAttached) reproduces the exact
// decisions and serializes back to identical bytes.
func TestAutomatonRoundTrip(t *testing.T) {
	rules := benchRules(1000)
	orig := NewList("rt", rules)
	blob := orig.AutomatonBytes()
	re, err := NewListAttached("rt", rules, orig.rulesCRC, blob, nil)
	if err != nil {
		t.Fatalf("NewListAttached: %v", err)
	}
	if got := re.AutomatonBytes(); string(got) != string(blob) {
		t.Fatal("reattached automaton serializes to different bytes")
	}
	// Determinism: compiling the same rules again yields identical bytes.
	if again := NewList("rt", rules).AutomatonBytes(); string(again) != string(blob) {
		t.Fatal("recompiling the same rules produced different bytes")
	}
	for _, u := range benchURLs {
		q := Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
		d1, r1 := orig.MatchRequest(q)
		d2, r2 := re.MatchRequest(q)
		if d1 != d2 || (r1 == nil) != (r2 == nil) || (r1 != nil && r1.Raw != r2.Raw) {
			t.Fatalf("%q: original (%v) != reattached (%v)", u, d1, d2)
		}
	}
}

// TestAutomatonRejectsCorruption is the openAutomaton corruption matrix:
// every structural damage class the validator guards is refused with an
// ErrCorrupt-wrapping error rather than accepted or panicking.
func TestAutomatonRejectsCorruption(t *testing.T) {
	rules := benchRules(500)
	list := NewList("c", rules)
	good := list.AutomatonBytes()
	crc := rulesChecksum(list.Rules())

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, err := openAutomaton(b, list.Len(), crc); err == nil {
			t.Errorf("%s: corruption accepted", name)
		} else if !isCorrupt(err) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
	mutate("truncated-header", func(b []byte) []byte { return b[:acHeaderSize-1] })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad-version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("truncated-body", func(b []byte) []byte { return b[:len(b)-4] })
	mutate("inflated-slots", func(b []byte) []byte { b[8]++; return b })
	mutate("nonzero-root", func(b []byte) []byte { b[12] = 1; return b })
	mutate("stale-rules-crc", func(b []byte) []byte { b[32] ^= 0xFF; return b })
	mutate("ordinal-overflow", func(b []byte) []byte {
		// The last u32 is a generic or output ordinal; push it past numRules.
		for i := 0; i < 4; i++ {
			b[len(b)-4+i] = 0xFF
		}
		return b
	})

	// Wrong rule count / rule content at the call site.
	if _, err := openAutomaton(append([]byte(nil), good...), list.Len()-1, crc); err == nil {
		t.Error("rule-count mismatch accepted")
	}
	if _, err := openAutomaton(append([]byte(nil), good...), list.Len(), crc^1); err == nil {
		t.Error("rule-CRC mismatch accepted")
	}
	// The pristine blob must still open.
	if _, err := openAutomaton(append([]byte(nil), good...), list.Len(), crc); err != nil {
		t.Fatalf("pristine blob refused: %v", err)
	}
}

// TestRulesChecksumPinned: the value is artifact.Checksum of the rule
// lines' text and, on a fixed rule set, the literal the parent commit
// (b547b05) computed — snapshot sections written before the checksum
// stopped assembling that text must still attach.
func TestRulesChecksumPinned(t *testing.T) {
	lines := []string{
		"||pagefair.com^$third-party",
		"@@||numerama.com/ads.js",
		"/detect*.js$script,domain=example.com",
		"smashboards.com###notice",
		"/\u212aelvin/caf\u00e9$match-case",
	}
	rules := buildList(t, "pin", lines...).Rules()
	got := rulesChecksum(rules)
	if want := uint64(0xc047a28a5347466c); got != want {
		t.Errorf("rulesChecksum = %#016x, parent commit computed %#016x", got, want)
	}
	if want := artifact.Checksum([]byte(strings.Join(lines, "\n") + "\n")); got != want {
		t.Errorf("rulesChecksum = %#016x, artifact.Checksum of the text = %#016x", got, want)
	}
	// The text is folded in by the block: lines that end exactly at a block's
	// edge, one byte either side of it, and one longer than a block.
	for _, n := range []int{4094, 4095, 4096, 9000} {
		long := append(slices.Clone(lines), "/"+strings.Repeat("a", n-1), "/tail")
		want := artifact.Checksum([]byte(strings.Join(long, "\n") + "\n"))
		if got := rulesChecksum(buildList(t, "long", long...).Rules()); got != want {
			t.Errorf("with a %d-byte line: rulesChecksum = %#016x, artifact.Checksum of the text = %#016x", n, got, want)
		}
	}
	if got, want := rulesChecksum(NewList("b", benchRules(2000)).Rules()), uint64(0x863779bba709bd71); got != want {
		t.Errorf("rulesChecksum(benchRules(2000)) = %#016x, parent commit computed %#016x", got, want)
	}
}

// TestNonASCIIURLs pins the folding rule where it is decided — URL bytes
// are matched as sent, only A–Z folds — and that the automaton needs no
// second engine for such URLs: every case gives its pinned verdict and
// equals the linear oracle flat, reattached and tiered; folding a
// non-ASCII URL allocates nothing; and a snapshot the parent commit wrote
// loads and answers the table as its own oracle does.
func TestNonASCIIURLs(t *testing.T) {
	for _, c := range nonASCIICases {
		rules := buildList(t, "nonascii", append(slices.Clip(diffFixed), c.line)...).Rules()
		q := Request{URL: c.url, Type: TypeScript, PageDomain: "page.com"}
		engines := diffEngines(t, rules, len(c.url))
		if d, _ := engines[0].l.MatchRequestLinear(q); d != c.want {
			t.Errorf("rule %q url %q: linear verdict %v, want %v", c.line, c.url, d, c.want)
		}
		for _, e := range engines {
			assertMatchesOracle(t, e.name, engines[0].l, e.l, q)
		}
	}

	t.Run("no allocation", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation accounting is unreliable under -race")
		}
		// The rule's keyword occurs, so it is verified against the folded
		// URL — upper-case ASCII and non-ASCII bytes both present — and
		// fails on the path.
		list := NewList("gate", benchRules(2000))
		q := Request{URL: "http://site0001.com/Caf\u00e9/\u212a/ADS.JSX", Type: TypeScript, PageDomain: "page.com"}
		if candidates(list, q) == 0 {
			t.Fatal("no candidate: the URL is never folded and the gate exercises nothing")
		}
		buf := make([]Hit, 0, 16)
		allocs := testing.AllocsPerRun(200, func() {
			if d, _ := list.MatchRequest(q); d != NoMatch {
				t.Fatal("URL must not match")
			}
			if buf = list.AppendHits(buf[:0], q); len(buf) != 0 {
				t.Fatal("URL must not hit")
			}
		})
		if allocs != 0 {
			t.Fatalf("non-ASCII no-match lookup allocates %.1f/op, want 0", allocs)
		}
	})

	// testdata/parent-v4.snapshot was written by the parent commit (b547b05,
	// `SaveListsSnapshotTiered`) from diffFixed plus every nonASCIICases
	// rule of the time except the $match-case one: that commit drew every
	// rule's keyword from the Unicode-lowered pattern, which only its
	// token-index fallback made sound under $match-case, and which
	// kelvinPatternURL misses. Its automata are attached as that commit
	// compiled them, under today's schema (parentV4AsCurrent); the file as it
	// is, and its schema-3 twin, are the converter's fixtures
	// (cmd/adwars-compact).
	t.Run("parent-v4.snapshot", func(t *testing.T) {
		snap, err := ParseListsSnapshot(parentV4AsCurrent(t))
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Tiered() {
			t.Fatal("parent v4 loaded untiered")
		}
		l := snap.Lists[0]
		for _, c := range nonASCIICases {
			if c.url == kelvinPatternURL {
				continue
			}
			assertMatchesOracle(t, "parent-v4.snapshot", l, l, Request{URL: c.url, Type: TypeScript, PageDomain: "page.com"})
		}
	})
}

// TestNoMatchZeroAllocs is the hot-path allocation gate: a miss through the
// automaton must not allocate at all. Skipped under the race detector,
// whose instrumentation allocates.
func TestNoMatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	list := NewList("gate", benchRules(2000))
	q := Request{URL: "http://cdn.unrelated.net/static/app.js", Type: TypeScript, PageDomain: "page.com"}
	allocs := testing.AllocsPerRun(200, func() {
		if d, _ := list.MatchRequest(q); d != NoMatch {
			t.Fatal("URL must not match")
		}
	})
	if allocs != 0 {
		t.Fatalf("no-match MatchRequest allocates %.1f/op, want 0", allocs)
	}
}

// TestMatchZeroAllocs extends the gate to matching lookups: candidate
// verification through stack scratch must stay allocation-free too.
func TestMatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	list := NewList("gate", benchRules(2000))
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
		t.Fatalf("MatchRequest allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendHitsZeroAllocs gates the serving data plane's all-matches
// path: with a caller-provided buffer it must not allocate.
func TestAppendHitsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	list := NewList("gate", benchRules(2000))
	qs := make([]Request, len(benchURLs))
	for i, u := range benchURLs {
		qs[i] = Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
	}
	buf := make([]Hit, 0, 16)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = list.AppendHits(buf[:0], qs[i%len(qs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("AppendHits allocates %.1f/op, want 0", allocs)
	}
}

// TestMatchP50Gate is the latency gate of the match core: the median
// MatchRequest over the bench mix stays under a microsecond.
func TestMatchP50Gate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing is unrepresentative under -race")
	}
	if p50 := matchP50ns(NewList("gate", benchRules(2000))); p50 >= 1000 {
		t.Fatalf("p50 MatchRequest = %.0f ns, want < 1µs", p50)
	}
}
