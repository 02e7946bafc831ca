package abp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"adwars/internal/artifact"
)

// snapshotFuzzFiles are the well-formed files FuzzReadListsSnapshot starts
// from: the one commit b547b05 wrote, carried into this schema with its
// keyword choice, and files this build writes — two lists, so that a section
// can land on the wrong one; the same two lists with their regions laid out
// as before the page-domain index (runsOnly); and four lists, one of them
// empty and one of nothing but element hiding rules, whose regions file
// nothing.
func snapshotFuzzFiles(t testing.TB) [][]byte {
	t.Helper()
	parent := parentV4AsCurrent(t)
	files := [][]byte{parent}
	first, errs := ParseAndBuild("first", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	var rules []*Rule
	for _, line := range diffFixed {
		r, err := Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	second := NewList("second", rules)
	keywordOnly := func(l *List) *List {
		old, err := NewListAttached(l.Name, l.rules, l.rulesCRC, buildAutomaton(l.rules, runsOnly(l.rules), nil, l.rulesCRC).Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return old
	}
	hiding, errs := ParseAndBuild("hiding", "##.ad-banner\nnews.example##.adblock-notice\n@@||trusted.example^$elemhide")
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	for _, lists := range [][]*List{
		{first, second},
		{keywordOnly(first), keywordOnly(second)},
		{first, NewList("empty", nil), second, hiding},
	} {
		file, err := MarshalListsSnapshot(&ListsSnapshot{Label: "fuzz", Lists: lists})
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	return files
}

// snapshotFuzzSeeds is file and what damage at section granularity makes of
// it: cut at every section boundary and in the middle of every section
// (trailer lost, as a torn write leaves it — the fuzz target also reseals
// whatever it is given), sections in reverse order, every section twice,
// every section's bytes under its neighbour's name, and both after the right
// ones (a name twice is refused; the parent kept the last).
func snapshotFuzzSeeds(t testing.TB, file []byte) [][]byte {
	t.Helper()
	primary, secs, _, err := artifact.OpenSections(file)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(names, data []artifact.Section) []byte {
		secs := make([]artifact.Section, len(names))
		for i := range names {
			secs[i] = artifact.Section{Name: names[i].Name, Data: data[i].Data}
		}
		p, _, err := artifact.OpenVersion(sealed(primary, secs))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seeds := [][]byte{file}
	for k := 0; k < len(secs); k++ {
		whole, next := frame(secs[:k], secs[:k]), frame(secs[:k+1], secs[:k+1])
		seeds = append(seeds, whole, next[:(len(whole)+len(next))/2])
	}
	if len(secs) > 1 {
		var reversed, doubled, rotated []artifact.Section
		for i := range secs {
			reversed = append(reversed, secs[len(secs)-1-i])
			doubled = append(doubled, secs[i], secs[i])
			rotated = append(rotated, secs[(i+1)%len(secs)])
		}
		seeds = append(seeds,
			artifact.Seal(frame(reversed, reversed)),
			artifact.Seal(frame(doubled, doubled)),
			artifact.Seal(frame(secs, rotated)),
			artifact.Seal(frame(append(slices.Clone(secs), secs...), append(slices.Clone(secs), rotated...))))
	}
	return seeds
}

// FuzzReadListsSnapshot feeds the lists-snapshot loader damaged files. No
// input may make it panic, and a file it does load must hold lists that
// answer as the linear scan over their own rules does (assertMatchesOracle)
// — a section attached to the wrong list, or to rules it was not compiled
// from, has to be refused, not served. Every input is tried as given and
// again under a fresh integrity trailer, so that the fuzzer's edits reach
// the section parser and the list loaders behind the trailer's checksum.
// Behind that stands each section's own checksum, so a third file lays
// patch over the bytes of one section (sec, at off) and frames every
// section anew with artifact.SealSections. Hostile bytes inside a rules
// section reach the line loop and the strict line rule: that file is
// refused, or answers as a fresh compile of the lines that loaded. Hostile
// bytes inside an automaton reach openAutomaton and List.attach, which prove
// a blob safe to scan and every rule filed under a run of its own pattern,
// not that the rule is found wherever that run occurs — a fail link or an
// output list merged down a fail chain can still hide it, and proving them
// would be compiling the region again — so that file is held to
// assertNoInventedHit instead.
// `make fuzz-smoke` runs it for ten seconds; plain `go test` runs the seeds.
func FuzzReadListsSnapshot(f *testing.F) {
	for _, file := range snapshotFuzzFiles(f) {
		for _, seed := range snapshotFuzzSeeds(f, file) {
			f.Add(seed, uint8(0), uint32(0), []byte(nil))
		}
		// Inside every section: its header stomped, and its middle.
		_, secs, _, _ := artifact.OpenSections(file)
		for k, s := range secs {
			f.Add(file, uint8(k), uint32(0), bytes.Repeat([]byte{0xff}, 8))
			f.Add(file, uint8(k), uint32(len(s.Data)/2), []byte{0, 0, 0, 0, 1, 0, 0, 0})
			if strings.HasPrefix(s.Name, rulesSection+".") {
				// Still text: one byte of a rule, a line break where there
				// was none, a comment, a line that is no rule.
				for _, text := range []string{"x", "\n", "\n! c\n", "\n##[\n"} {
					f.Add(file, uint8(k), uint32(len(s.Data)/2), []byte(text))
				}
			}
		}
	}
	var requests []Request
	requests = append(requests, snapshotTestRequests()...)
	for _, c := range nonASCIICases {
		if c.url == kelvinPatternURL {
			continue // the parent-written seeds predate the folding rule
		}
		requests = append(requests, Request{URL: c.url, Type: TypeScript, PageDomain: "page.com"})
	}

	f.Fuzz(func(t *testing.T, data []byte, sec uint8, off uint32, patch []byte) {
		payload := data
		if i := bytes.LastIndex(data, []byte(artifact.TrailerPrefix)); i >= 0 {
			payload = data[:i]
		}
		load := func(file []byte, assert func(*testing.T, string, *List, *List, Request)) {
			snap, err := ParseListsSnapshot(file)
			if err != nil {
				return
			}
			for _, l := range snap.Lists {
				oracle := NewList(l.Name, l.Rules())
				for _, q := range requests {
					assert(t, l.Name, oracle, l, q)
				}
			}
		}
		load(data, assertMatchesOracle)
		resealed := artifact.Seal(payload)
		load(resealed, assertMatchesOracle)
		if primary, secs, _, err := artifact.OpenSections(resealed); err == nil && len(secs) > 0 && len(patch) > 0 {
			assert := assertNoInventedHit
			patched := make([]artifact.Section, len(secs))
			for k, s := range secs {
				d := s.Data
				if k == int(sec)%len(secs) && len(d) > 0 {
					d = bytes.Clone(d)
					copy(d[int(off)%len(d):], patch)
					if strings.HasPrefix(s.Name, rulesSection+".") {
						assert = assertMatchesOracle
					}
				}
				patched[k] = artifact.Section{Name: s.Name, Data: d}
			}
			load(sealed(primary, patched), assert)
		}
	})
}

// assertNoInventedHit is what is left of assertMatchesOracle once the
// automaton's own bytes are hostile. A patched automaton that still opens
// may nominate fewer rules than were compiled into it, but every candidate
// is verified against its rule, so the hits it reports are the linear
// scan's or a subset of them, in ordinal order, and MatchRequest is
// DecideHits of exactly those.
func assertNoInventedHit(t *testing.T, name string, oracle, l *List, q Request) {
	t.Helper()
	linear := make(map[*Rule]bool)
	for _, r := range oracle.MatchingHTTPRulesLinear(q) {
		linear[r] = true
	}
	hits := l.AppendHits(nil, q)
	for i, h := range hits {
		if i > 0 && hits[i-1].Ord >= h.Ord || l.Rules()[h.Ord] != h.Rule || !linear[oracle.Rules()[h.Ord]] {
			t.Fatalf("%s: url %q page %q: hit %d (rule %d %q) is out of order or not a linear hit",
				name, q.URL, q.PageDomain, i, h.Ord, h.Rule.Raw)
		}
	}
	wd, wr, _ := DecideHits(hits)
	if d, r := l.MatchRequest(q); d != wd || raw(r) != raw(wr) {
		t.Fatalf("%s: url %q page %q: MatchRequest (%v, %s) != DecideHits of its own hits (%v, %s)",
			name, q.URL, q.PageDomain, d, raw(r), wd, raw(wr))
	}
}
