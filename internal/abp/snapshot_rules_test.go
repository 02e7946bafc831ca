package abp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adwars/internal/artifact"
)

// awkwardLines are rule lines whose bytes a careless text section would
// change or trip over: CRLF endings and stray spaces (kept in Raw, trimmed
// for parsing), element-hiding lines that start with '#' as the framing's own
// lines do, and rules that spell a section header and an integrity trailer.
var awkwardLines = []string{
	"||crlf.example^$script\r",
	"  ||spaces.example^  ",
	"\t/tab/ad.js\t",
	"###top-banner",
	"#@#.allowed-banner",
	"news.example##.adblock-notice\r",
	artifact.SectionPrefix + "v1 name=rules.0 len=4 pad=0 crc64=0000000000000000",
	artifact.TrailerPrefix + "v1 len=10 crc64=0000000000000000",
	"@@||ok.example^$elemhide",
	"/café/Kelvin.js$match-case",
}

// TestRulesSectionKeepsBytes: the rules come back with the bytes they went
// in with — the lines above, an empty list (a zero-length section) and a
// bench-shaped list in one file — the loaded snapshot answers as the lists it was
// written from, and writes back the file it was read from.
func TestRulesSectionKeepsBytes(t *testing.T) {
	rules, errs := ParseList(strings.Join(awkwardLines, "\n"))
	if len(errs) != 0 || len(rules) != len(awkwardLines) {
		t.Fatalf("%d of %d lines parsed, errors %v", len(rules), len(awkwardLines), errs)
	}
	awkward := NewList("awkward", rules)
	empty := NewList("empty", nil)
	plain := NewList("bench", benchRules(300))
	data, err := MarshalListsSnapshot(&ListsSnapshot{Label: "bytes", Lists: []*List{awkward, empty, plain}})
	if err != nil {
		t.Fatal(err)
	}
	_, secs, _, err := artifact.OpenSections(data)
	if err != nil || len(secs) != 6 {
		t.Fatalf("%d sections (err %v), want 6", len(secs), err)
	}
	if want := strings.Join(awkwardLines, "\n") + "\n"; string(secs[0].Data) != want {
		t.Errorf("rules.0 is %q, want the lines as written: %q", secs[0].Data, want)
	}
	if secs[2].Name != "rules.1" || len(secs[2].Data) != 0 {
		t.Errorf("the empty list's section is %s, %d bytes", secs[2].Name, len(secs[2].Data))
	}

	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Lists) != 3 || snap.Lists[1].Len() != 0 || snap.Lists[2].Len() != plain.Len() {
		t.Fatalf("loaded %d lists", len(snap.Lists))
	}
	for i, r := range snap.Lists[0].Rules() {
		if r.Raw != awkwardLines[i] {
			t.Errorf("rule %d came back as %q, went in as %q", i, r.Raw, awkwardLines[i])
		}
		if w := rules[i]; r.Kind != w.Kind || r.Pattern != w.Pattern || r.MatchCase != w.MatchCase {
			t.Errorf("rule %d parsed as %v %q, was %v %q", i, r.Kind, r.Pattern, w.Kind, w.Pattern)
		}
	}
	for _, q := range []Request{
		{URL: "http://crlf.example/a.js", Type: TypeScript, PageDomain: "page.com"},
		{URL: "http://spaces.example/", Type: TypeImage, PageDomain: "page.com"},
		{URL: "http://x.example/tab/ad.js", Type: TypeScript, PageDomain: "page.com"},
		{URL: "http://x.example/café/Kelvin.js", Type: TypeScript, PageDomain: "page.com"},
		{URL: "http://x.example/#adwars-section v1 name=rules.0 len=4 pad=0 crc64=0000000000000000", PageDomain: "page.com"},
	} {
		if d, _ := awkward.MatchRequest(q); d != Blocked {
			t.Errorf("%q: the written list says %v, want blocked (the case exercises nothing)", q.URL, d)
		}
		assertMatchesOracle(t, "awkward", awkward, snap.Lists[0], q)
	}
	assertAnswersAsOracle(t, "bench", plain, snap.Lists[2])
	if again, err := MarshalListsSnapshot(snap); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("the loaded snapshot does not write back the bytes it was read from (err %v)", err)
	}
}

// TestRulesSectionStrictLineRule: a rules section is exactly as many
// newline-terminated rule lines as the header says, or the file is refused.
// Each damaged file is framed anew and sealed, so every frame checksum
// holds; the reason names the check that caught it (a stale automaton would
// read automaton-invalid).
func TestRulesSectionStrictLineRule(t *testing.T) {
	data, _ := snapshotTestBytes(t)
	text := func(edit func([]byte) []byte) func(artifact.Section) []artifact.Section {
		return func(sec artifact.Section) []artifact.Section {
			if sec.Name == "rules.0" {
				sec.Data = edit(bytes.Clone(sec.Data))
			}
			return []artifact.Section{sec}
		}
	}
	same := func(b []byte) []byte { return b }
	count := func(from, to int) func([]byte) []byte {
		return func(primary []byte) []byte {
			old, now := fmt.Sprintf(`"rules":%d`, from), fmt.Sprintf(`"rules":%d`, to)
			if !bytes.Contains(primary, []byte(old)) {
				t.Fatalf("header %s does not say %s", primary, old)
			}
			return bytes.Replace(primary, []byte(old), []byte(now), 1)
		}
	}
	for name, c := range map[string]struct {
		header func([]byte) []byte
		text   func([]byte) []byte
	}{
		"no final newline":       {same, func(b []byte) []byte { return b[:len(b)-1] }},
		"header counts one more": {count(9, 10), same},
		"header counts one less": {count(9, 8), same},
		"header counts none":     {count(9, 0), same},
		"a line fewer":           {same, func(b []byte) []byte { return b[bytes.IndexByte(b, '\n')+1:] }},
		"empty, header counts 9": {same, func([]byte) []byte { return nil }},
		"one blank line for 9":   {same, func([]byte) []byte { return []byte("\n") }},
		"NUL byte":               {same, func(b []byte) []byte { b[5] = 0; return b }},
		"NUL for the newline":    {same, func(b []byte) []byte { b[len(b)-1] = 0; return b }},
	} {
		_, err := ParseListsSnapshot(reframeUnder(t, data, c.header, text(c.text)))
		if corruptReason(err) != "section-malformed" {
			t.Errorf("%s: err = %v, want section-malformed", name, err)
		}
	}
	if _, err := ParseListsSnapshot(reframeUnder(t, data, same, text(same))); err != nil {
		t.Fatalf("framed anew, unedited: %v", err)
	}
}

// TestSnapshotRulesParsedBeforeInstall: every line is parsed before the
// list exists, and a line that is no rule refuses the file with its parse
// error. The files are the writer's own: each list holds one hand-built rule
// whose Raw the parser does not accept, compiled and written with the rest,
// so its frame checksums hold and its automata carry the checksum of exactly
// this text — nothing but parsing the line can refuse it.
func TestSnapshotRulesParsedBeforeInstall(t *testing.T) {
	for raw, want := range map[string]error{
		"! a comment":   ErrCommentLine,
		"[Adblock 2.0]": ErrCommentLine,
		"":              ErrEmptyLine,
		" \t\r":         ErrEmptyLine,
		"##[":           ErrBadSelector,
		"||":            ErrEmptyPattern,
		"@@|":           ErrEmptyPattern,
	} {
		rules := benchRules(20)
		rules = append(rules[:10:10], append([]*Rule{{Raw: raw, Kind: KindHTTPBlock, Pattern: "/hand-built/"}}, rules[10:]...)...)
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("hand-built", rules)}})
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if _, err := ParseListsSnapshot(data); !errors.Is(err, want) || errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("%q: err = %v, want %v", raw, err, want)
		}
	}
}

// TestMarshalRefusesUnreadableLines: the writer cannot emit text the loader
// would read back as other rules, or not at all.
func TestMarshalRefusesUnreadableLines(t *testing.T) {
	for _, raw := range []string{"/a/\n/b/", "/a/\n", "\n", "/a\x00b/"} {
		l := NewList("hand-built", []*Rule{{Raw: raw, Kind: KindHTTPBlock, Pattern: "/a/"}})
		if data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{l}}); err == nil {
			t.Errorf("Raw %q was written (%d bytes)", raw, len(data))
		}
	}
}

// TestRulesSectionCRCIsRulesChecksum: the checksum the rules section's
// frame carries is rulesChecksum of the rules that load from it — the value
// the loader hands NewListAttached without summing the text again — over
// generated lists of every rule form, with CRLF and padded lines among them.
func TestRulesSectionCRCIsRulesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forms := []string{
		"||host%[1]d.example^", "@@||host%[1]d.example/ok$script", "/path%[1]d/ad.js$domain=a%[2]d.example|~b.example",
		"site%[1]d.example##.ad-%[2]d", "###id%[1]d", "site%[1]d.example#@#.ok", "|http://exact%[1]d.example/|",
		"/café%[1]d/*", "||crlf%[1]d.example^\r", "  /padded%[1]d/  ",
	}
	for round := 0; round < 50; round++ {
		lines := make([]string, rng.Intn(120))
		for i := range lines {
			lines[i] = fmt.Sprintf(forms[rng.Intn(len(forms))], rng.Intn(1000), rng.Intn(1000))
		}
		rules, _ := ParseList(strings.Join(lines, "\n"))
		l := NewList("gen", rules)
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{l}})
		if err != nil {
			t.Fatal(err)
		}
		_, secs, _, err := artifact.OpenSections(data)
		if err != nil || secs[0].Name != "rules.0" {
			t.Fatalf("round %d: %v", round, err)
		}
		snap, err := ParseListsSnapshot(data)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		loaded := snap.Lists[0]
		if got := rulesChecksum(loaded.Rules()); secs[0].CRC != got || loaded.rulesCRC != got || l.rulesCRC != got {
			t.Fatalf("round %d: section crc %016x, loaded list %016x, written list %016x, rulesChecksum of the loaded rules %016x",
				round, secs[0].CRC, loaded.rulesCRC, l.rulesCRC, got)
		}
	}
}

// TestSnapshotLoadAllocs: a load draws its rules and their matchers from
// two arrays per list, so what is left per rule is what the rule itself
// needs ($domain= and type lists, a selector). The parent allocated about
// 3.5 times per rule of this list; the bound is 2.
func TestSnapshotLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const n = 2000
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("gate", benchRules(n))}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseListsSnapshot(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per load, %.2f per rule", allocs, allocs/n)
	if allocs > 2*n {
		t.Fatalf("a load of %d rules allocates %.0f times (%.2f per rule), want at most 2 per rule", n, allocs, allocs/n)
	}
}

// TestHidingRulesAllocateNoObjects: a list keeps its element hiding rules
// as text, and only NewHiding parses their selectors. So NewList over
// 10 000 "##.c" rules and a load of their snapshot each allocate at most a
// fixed 100 objects — the slabs and tables any list has — and not one (or
// two: a selector and its class slice) per hiding rule.
func TestHidingRulesAllocateNoObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const n, budget = 10_000, 100
	rules, errs := ParseList(strings.Repeat("##.c\n", n))
	if len(rules) != n || len(errs) != 0 {
		t.Fatalf("%d rules, errors %v; want %d rules", len(rules), errs, n)
	}
	build := testing.AllocsPerRun(5, func() { NewList("hide", rules) })
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("hide", rules)}})
	if err != nil {
		t.Fatal(err)
	}
	load := testing.AllocsPerRun(5, func() {
		if _, err := ParseListsSnapshot(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d hiding rules: NewList allocates %.0f objects, a snapshot load %.0f", n, build, load)
	if build > budget || load > budget {
		t.Errorf("%d hiding rules cost %.0f allocations to build and %.0f to load, budget %d each", n, build, load, budget)
	}
}
