package abp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"adwars/internal/alexa"
	"adwars/internal/artifact"
)

// benchRules builds a realistic mixed rule set of n rules.
func benchRules(n int) []*Rule {
	var rules []*Rule
	for i := 0; i < n; i++ {
		var line string
		switch i % 5 {
		case 0:
			line = fmt.Sprintf("||vendor%04d.com^$third-party", i)
		case 1:
			line = fmt.Sprintf("||site%04d.com/ads.js", i)
		case 2:
			line = fmt.Sprintf("site%04d.com###notice%d", i, i)
		case 3:
			line = fmt.Sprintf("@@||benign%04d.com/ads.js", i)
		default:
			line = fmt.Sprintf("/detect%04d*.js$script,domain=site%04d.com", i, i)
		}
		r, err := Parse(line)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	return rules
}

// easyMixLines is a copy of bench/corpus.go's easyList: n rules over the
// domains of the benchmark's 100 000-site universe, in easyMix's shares and
// with its paths, so that a compile measured here is the compile the
// snapshot_cycle workload pays. The benchmark module is not importable
// from here; the copy goes when one generator serves both.
func easyMixLines(seed int64, n int) []string {
	sites := alexa.NewUniverse(100_000, seed).Top(100_000)
	rng := rand.New(rand.NewSource(seed ^ 0x6561737931)) // "easy1"
	domain := func() string { return sites[100+rng.Intn(len(sites)-100)].Domain }
	adPaths := []string{
		"/ads.js", "/js/ads.js", "/adsbygoogle.js", "/advertising.js",
		"/assets/ad-loader.js", "/static/showads.js", "/banner/ads.js",
		"/js/advertisement.js", "/js/blockadblock.js", "/detect.js",
		"/js/site-adblock.js", "/js/iab-adblock-check.js",
		"/adbanner_7.js", "/img/-ad-300x250.3.js", "/ad/sponsor_12/frame.js",
		"/track/pixel.js",
	}
	path := func() string {
		if rng.Intn(2) == 0 {
			return adPaths[rng.Intn(len(adPaths))]
		}
		return fmt.Sprintf("/assets/ads/unit_%d.js", rng.Intn(50_000))
	}
	// The shapes and their shares in percent: ||d^, ||d/path,
	// ||d/path$script,domain=d2, /path$domain=d2, a numbered plain rule,
	// @@||d/path, d###id and ##.class.
	mix := []int{45, 10, 8, 3, 8, 6, 15, 5}
	shapes := make([]int, 0, n)
	for i, pct := range mix {
		for k := 0; k < n*pct/100; k++ {
			shapes = append(shapes, i)
		}
	}
	for len(shapes) < n {
		shapes = append(shapes, 0)
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	lines := make([]string, 0, n)
	for i, sh := range shapes {
		var line string
		switch sh {
		case 0:
			line = fmt.Sprintf("||%s^", domain())
		case 1:
			line = fmt.Sprintf("||%s%s", domain(), path())
		case 2:
			line = fmt.Sprintf("||%s%s$script,domain=%s", domain(), path(), domain())
		case 3:
			line = fmt.Sprintf("%s$domain=%s", path(), domain())
		case 4:
			if rng.Intn(2) == 0 {
				line = fmt.Sprintf("-ad-300x250.%d", rng.Intn(4000))
			} else {
				line = fmt.Sprintf("/adbanner_%d", rng.Intn(4000))
			}
		case 5:
			line = fmt.Sprintf("@@||%s%s", domain(), path())
		case 6:
			line = fmt.Sprintf("%s###ad-slot-%d", domain(), i)
		default:
			line = fmt.Sprintf("##.ad-unit-%d", i)
		}
		lines = append(lines, line)
	}
	return lines
}

// BenchmarkCompilePhases splits NewList over easyMixLines' 70 k rules into
// its phases, each timed and its bytes counted on its own: the run counts
// and choice of selectKeywords, the rules checksum, the guards, then the
// build's keyword collection, sort and levels, its fail links and output
// counts, slot placement, the region's fill and output merge, and the
// validation and page-domain index a fresh region is attached with.
func BenchmarkCompilePhases(b *testing.B) {
	rules, errs := ParseList(strings.Join(easyMixLines(1, 70_000), "\n"))
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	l := indexRules("easy", rules)
	l.rulesCRC = rulesChecksum(l.rules)
	kws, runs := selectKeywords(l.rules)
	l.guards = ruleGuards(l.rules, kws)
	var t trieBuild
	t.collect(l.rules, kws, runs)
	t.sortKeys()
	t.levels()
	t.failLinks()
	t.place()
	blob := t.fill(len(l.rules))
	binary.LittleEndian.PutUint64(blob[32:], l.rulesCRC)
	for _, p := range []struct {
		name string
		run  func()
	}{
		{"select", func() { selectKeywords(l.rules) }},
		{"checksum", func() { rulesChecksum(l.rules) }},
		{"guards", func() { ruleGuards(l.rules, kws) }},
		{"sort+levels", func() {
			t.collect(l.rules, kws, runs)
			t.sortKeys()
			t.levels()
		}},
		{"fail-links", t.failLinks},
		{"placement", t.place},
		{"fill+merge", func() { t.fill(len(l.rules)) }},
		{"attach", func() {
			w, err := walkRegion(blob, len(l.rules), l.rulesCRC, false)
			if err == nil {
				err = l.attach(w)
			}
			if err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.run()
			}
		})
	}
}

// parseRulesSection is the load's strict rule parse on its own: want lines,
// every one of them a rule, as loadList runs cutRulesSection and parseLines
// beside the region's walk.
func parseRulesSection(text []byte, want int) ([]*Rule, error) {
	chunks, lines, err := cutRulesSection(text, want)
	if err != nil {
		return nil, err
	}
	rules, errs := parseLines(chunks, lines, true)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return rules, nil
}

// BenchmarkLoadPhases splits ParseListsSnapshot over a snapshot of
// easyMixLines' 70 k rules into its phases, each timed and its bytes counted
// on its own: the seal (trailer, frames and section checksums), the header
// document, the strict rule parse, opening the automaton region, the walk
// over its states, filing the rules and deriving their guards, and the
// page-domain index; then the whole load, in which the region's open and
// walk run beside the rule parse.
func BenchmarkLoadPhases(b *testing.B) {
	rules, errs := ParseList(strings.Join(easyMixLines(1, 70_000), "\n"))
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("easy", rules)}})
	if err != nil {
		b.Fatal(err)
	}
	primary, secs, _, err := artifact.OpenSections(data)
	if err != nil {
		b.Fatal(err)
	}
	text, region := secs[0], secs[1]
	n := len(rules)
	l := indexRules("easy", rules)
	a, err := openAutomaton(region.Data, n, text.CRC)
	if err != nil {
		b.Fatal(err)
	}
	w, err := walkStates(a, true)
	if err != nil {
		b.Fatal(err)
	}
	l.guards = make([]guard, n)
	byDomain, err := l.file(w, 0, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"seal", func() error { _, _, _, err := artifact.OpenSections(data); return err }},
		{"header", func() error { _, _, err := readHeader(primary); return err }},
		{"rule-parse", func() error { _, err := parseRulesSection(text.Data, n); return err }},
		{"open", func() error { _, err := openAutomaton(region.Data, n, text.CRC); return err }},
		{"state-walk", func() error { _, err := walkStates(a, true); return err }},
		{"file+guards", func() error { return l.attach(w) }},
		{"domain-index", func() error { newDomainIndex(l.rules, byDomain); return nil }},
		{"whole", func() error { _, err := ParseListsSnapshot(data); return err }},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewListEasyMix is NewList over easyMixLines at the size of a
// paper_pipeline revision, below parallelRules, and at 70 k rules: the
// compile snapshot_cycle pays for its largest list.
func BenchmarkNewListEasyMix(b *testing.B) {
	for _, n := range []int{1_500, 70_000} {
		rules, errs := ParseList(strings.Join(easyMixLines(1, n), "\n"))
		if len(errs) > 0 {
			b.Fatal(errs[0])
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewList("easy", rules)
			}
		})
	}
}

var benchURLs = []string{
	"http://vendor0005.com/score.js",
	"http://site0001.com/ads.js",
	"http://cdn.other.net/lib/jquery.js",
	"http://img.other.net/banner.png",
	"http://site0123.com/js/app.js?v=9",
}

// matchP50ns samples individual MatchRequest latencies over the bench URL
// mix and returns the median in nanoseconds (timer overhead included, so
// the figure is an upper bound).
func matchP50ns(list *List) float64 {
	const samples = 5000
	lat := make([]time.Duration, samples)
	for i := range lat {
		q := Request{URL: benchURLs[i%len(benchURLs)], Type: TypeScript, PageDomain: "page.com"}
		start := time.Now()
		list.MatchRequest(q)
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[samples/2].Nanoseconds())
}

// BenchmarkListCompileLarge measures NewList over an 8 000-rule set: parsing
// is excluded, so this is keyword selection, automaton construction and
// matcher precompilation — what the per-revision cache pays once per
// revision and a serving replica pays to load an uncompiled snapshot.
func BenchmarkListCompileLarge(b *testing.B) {
	rules := benchRules(8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l := NewList("bench", rules); l.Len() == 0 {
			b.Fatal("empty list")
		}
	}
}

// BenchmarkProbeSharedPath measures one AppendHits over a 20 k-rule list in
// the shapes of a deployed one — path-only rules that differ in $domain=
// alone, numbered plain rules that share a run ("-ad-300x250.N") — on ad-path
// and cache-busted URLs, and reports beside the time how many candidates a
// request makes the probe verify: the number selection exists to keep small.
func BenchmarkProbeSharedPath(b *testing.B) {
	lines, pool := easyShaped(1, 20_000, 1024)
	list, errs := ParseAndBuild("bench", strings.Join(lines, "\n"))
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	cands := 0
	for _, q := range pool {
		cands += candidates(list, q)
	}
	buf := make([]Hit, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = list.AppendHits(buf[:0], pool[i%len(pool)])
	}
	b.ReportMetric(float64(cands)/float64(len(pool)), "cands/op")
}

// BenchmarkAttachList measures NewListAttached over the region of the same
// 20 k-rule list: validation, membership and the guards derived from the
// region — what a reload pays per list beyond reading and parsing the rule
// text.
func BenchmarkAttachList(b *testing.B) {
	lines, _ := easyShaped(1, 20_000, 0)
	l, errs := ParseAndBuild("bench", strings.Join(lines, "\n"))
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewListAttached("bench", l.rules, l.rulesCRC, l.AutomatonBytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobPathological pins the wildcard fix: a star-heavy pattern
// against a long non-matching URL was exponential under the recursive
// matcher and is linear-ish under the two-pointer glob.
func BenchmarkGlobPathological(b *testing.B) {
	r, err := Parse("/a*a*a*a*a*a*a*a*a*b")
	if err != nil {
		b.Fatal(err)
	}
	u := "http://x.com/" + strings.Repeat("a", 512) + "c"
	q := Request{URL: u, Type: TypeScript, PageDomain: "x.com"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.MatchRequest(q) {
			b.Fatal("pathological pattern must not match")
		}
	}
}

// BenchmarkParseList measures ParseList over 70 k easyShaped lines, a
// deployed list's size: the line loop, one chunk per core — what the update
// cycle pays to read the published text, and the loader to read it back.
func BenchmarkParseList(b *testing.B) {
	lines, _ := easyShaped(1, 70_000, 0)
	body := strings.Join(lines, "\n")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := ParseList(body); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
}

// BenchmarkParseRule measures single-rule parsing.
func BenchmarkParseRule(b *testing.B) {
	lines := []string{
		"||pagefair.com^$third-party",
		"smashboards.com###noticeMain",
		"/example.js$script,domain=example2.com",
		"@@||numerama.com/ads.js",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElementHiding measures element hiding over a 50-element DOM.
func BenchmarkElementHiding(b *testing.B) {
	hiding := NewHiding(NewList("bench", benchRules(500)))
	elems := make([]*Element, 50)
	for i := range elems {
		elems[i] = &Element{Tag: "div", ID: fmt.Sprintf("el%d", i), Classes: []string{"c"}}
	}
	elems[10].ID = "notice2"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hiding.HiddenElements("site0002.com", elems)
	}
}

// BenchmarkHistoryAt measures revision lookup in a 500-revision history.
func BenchmarkHistoryAt(b *testing.B) {
	h := NewHistory("bench")
	rules := benchRules(100)
	for i := 0; i < 500; i++ {
		h.Append(day(2012, 1, 1).AddDate(0, 0, i*3), rules[:1+(i%99)])
	}
	when := day(2014, 6, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.At(when); !ok {
			b.Fatal("missing revision")
		}
	}
}
