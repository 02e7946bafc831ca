package abp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adwars/internal/artifact"
)

const snapshotTestList = `! Anti-adblock test list
||baitserver.example^$script
||ads.example.com/banner/*
@@||ads.example.com/banner/allowed$script
|http://exact.example/ad.js|
/adframe/$subdocument,third-party
news.example##.adblock-notice
news.example#@#.adblock-notice-allowed
##div.ad-overlay
@@||trusted.example^$elemhide
`

func snapshotTestRequests() []Request {
	return []Request{
		{URL: "http://baitserver.example/ads.js", Type: TypeScript, PageDomain: "news.example"},
		{URL: "http://ads.example.com/banner/728x90.png", Type: TypeImage, PageDomain: "news.example"},
		{URL: "http://ads.example.com/banner/allowed", Type: TypeScript, PageDomain: "news.example"},
		{URL: "http://exact.example/ad.js", Type: TypeScript, PageDomain: "exact.example"},
		{URL: "http://cdn.example/adframe/index.html", Type: TypeSubdocument, PageDomain: "news.example"},
		{URL: "http://clean.example/app.js", Type: TypeScript, PageDomain: "clean.example"},
	}
}

func TestListsSnapshotRoundTrip(t *testing.T) {
	orig, errs := ParseAndBuild("test-list", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	snap := &ListsSnapshot{Label: "unit", Lists: []*List{orig}}
	path := filepath.Join(t.TempDir(), "lists.json")
	if err := SaveListsSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	// A snapshot frozen under one user is served under another.
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("saved with mode %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	got, err := LoadListsSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := artifact.Version(raw); got.Version != want || want == "" {
		t.Errorf("loaded snapshot carries version %q, the file's is %q", got.Version, want)
	}
	if got.Label != "unit" || len(got.Lists) != 1 {
		t.Fatalf("snapshot = %q/%d lists, want unit/1", got.Label, len(got.Lists))
	}
	reloaded := got.Lists[0]
	if reloaded.Name != orig.Name || reloaded.Len() != orig.Len() {
		t.Fatalf("reloaded %s/%d rules, want %s/%d", reloaded.Name, reloaded.Len(), orig.Name, orig.Len())
	}
	if got.Rules() != orig.Len() {
		t.Errorf("Rules() = %d, want %d", got.Rules(), orig.Len())
	}
	for _, q := range snapshotTestRequests() {
		d1, r1 := orig.MatchRequest(q)
		d2, r2 := reloaded.MatchRequest(q)
		if d1 != d2 {
			t.Errorf("%s: decision %v != %v", q.URL, d2, d1)
		}
		if (r1 == nil) != (r2 == nil) || (r1 != nil && r1.Raw != r2.Raw) {
			t.Errorf("%s: rule mismatch: %v vs %v", q.URL, r1, r2)
		}
		m1 := orig.AppendHits(nil, q)
		m2 := reloaded.AppendHits(nil, q)
		if len(m1) != len(m2) {
			t.Errorf("%s: %d matching rules, want %d", q.URL, len(m2), len(m1))
			continue
		}
		for i := range m1 {
			if m1[i].Ord != m2[i].Ord || m1[i].Rule.Raw != m2[i].Rule.Raw {
				t.Errorf("%s: matching rule %d = %q, want %q", q.URL, i, m2[i].Rule.Raw, m1[i].Rule.Raw)
			}
		}
	}
	// Element hiding survives the round trip too.
	elems := []*Element{
		{Tag: "div", Classes: []string{"adblock-notice"}},
		{Tag: "div", Classes: []string{"ad-overlay"}},
	}
	h1 := NewHiding(orig).HiddenElements("news.example", elems)
	h2 := NewHiding(reloaded).HiddenElements("news.example", elems)
	if len(h1) != len(h2) {
		t.Fatalf("hidden %d elements, want %d", len(h2), len(h1))
	}
	for i, r := range h1 {
		if h2[i] == nil || h2[i].Raw != r.Raw {
			t.Errorf("element %d hidden by %v, want %q", i, h2[i], r.Raw)
		}
	}
}

func TestListsSnapshotRejectsForeignAndFutureFiles(t *testing.T) {
	parse := func(payload string) error {
		_, err := ParseListsSnapshot(artifact.Seal([]byte(payload)))
		return err
	}
	if err := parse(`{"format":"nope","version":7}`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("foreign format: err = %v, want ErrSnapshotFormat", err)
	}
	if err := parse(`garbage`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("garbage: err = %v, want ErrSnapshotFormat", err)
	}
	if err := parse(`{"format":"adwars-lists","version":42,"lists":[]}`); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("future version: err = %v, want ErrSnapshotVersion", err)
	}
	// This version's header with another's list bodies is no lists snapshot.
	if err := parse(`{"format":"adwars-lists","version":7,"lists":[{"name":"x","rules":["||a^"]}]}`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("rule lines where the count belongs: err = %v, want ErrSnapshotFormat", err)
	}
	if err := parse(`{"format":"adwars-lists","version":7}`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("no lists at all: err = %v, want ErrSnapshotFormat", err)
	}
	if snap, err := ParseListsSnapshot(artifact.Seal([]byte(`{"format":"adwars-lists","version":7,"lists":[]}`))); err != nil || len(snap.Lists) != 0 {
		t.Errorf("zero lists: %v, err = %v; want an empty snapshot", snap, err)
	}
}

func TestListsSnapshotIsSealed(t *testing.T) {
	data, _ := snapshotTestBytes(t)
	if !bytes.Contains(data, []byte(artifact.TrailerPrefix)) {
		t.Fatal("written snapshot carries no integrity trailer")
	}
	if !bytes.Contains(data, []byte(`"version":7`)) {
		t.Fatal("written snapshot is not schema version 7")
	}
	if _, err := ParseListsSnapshot(data); err != nil {
		t.Fatalf("clean sealed snapshot failed to load: %v", err)
	}
}

func TestListsSnapshotCorruptionDetected(t *testing.T) {
	data, _ := snapshotTestBytes(t)
	trailerAt := bytes.LastIndex(data, []byte(artifact.TrailerPrefix))

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantCRC bool // must wrap artifact.ErrCorrupt specifically
	}{
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)/3] }, false},
		{"trailer truncated away", func(b []byte) []byte { return b[:trailerAt] }, true},
		{"bit flip in payload", func(b []byte) []byte {
			b = bytes.Clone(b)
			b[trailerAt/2] ^= 0x01
			return b
		}, true},
		{"bit flip in trailer checksum", func(b []byte) []byte {
			b = bytes.Clone(b)
			i := bytes.LastIndex(b, []byte("crc64=")) + len("crc64=")
			if b[i] == 'f' {
				b[i] = '0'
			} else {
				b[i] = 'f'
			}
			return b
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseListsSnapshot(tc.mutate(data))
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if tc.wantCRC && !errors.Is(err, artifact.ErrCorrupt) {
				t.Fatalf("err = %v, want artifact.ErrCorrupt", err)
			}
			if !tc.wantCRC && !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("err = %v, want ErrCorrupt or ErrSnapshotFormat", err)
			}
		})
	}
}

// snapshotTestBytes returns the raw sealed bytes of a small snapshot plus
// the original in-memory list for differential checks.
func snapshotTestBytes(t *testing.T) ([]byte, *List) {
	t.Helper()
	l, errs := ParseAndBuild("compiled-list", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Label: "unit", Lists: []*List{l}})
	if err != nil {
		t.Fatal(err)
	}
	return data, l
}

func TestListsSnapshotCompiledRoundTrip(t *testing.T) {
	data, orig := snapshotTestBytes(t)
	if !bytes.Contains(data, []byte(artifact.SectionPrefix)) {
		t.Fatal("snapshot carries no automaton section")
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := snap.Lists[0]
	if got := reloaded.AutomatonBytes(); !bytes.Equal(got, orig.AutomatonBytes()) {
		t.Fatal("attached automaton differs from the compiled one")
	}
	for _, q := range snapshotTestRequests() {
		d1, r1 := orig.MatchRequest(q)
		d2, r2 := reloaded.MatchRequest(q)
		if d1 != d2 || (r1 == nil) != (r2 == nil) || (r1 != nil && r1.Raw != r2.Raw) {
			t.Errorf("%s: compiled load decision (%v) != original (%v)", q.URL, d2, d1)
		}
	}
	// Determinism: writing again yields byte-identical output (snapshot
	// versions are content checksums).
	again, err := MarshalListsSnapshot(&ListsSnapshot{Label: "unit", Lists: []*List{orig}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("snapshot serialization is not deterministic")
	}
}

// TestListsSnapshotCompiledCorruption is the compiled-snapshot corruption
// matrix. A flipped bit anywhere is caught by the outer trailer; the deeper
// cases reseal the damaged payload with a fresh (valid) trailer, so only
// the per-section CRC stands between a damaged section and silently wrong
// match decisions — and, once the rule text is framed anew as well, only the
// automaton's embedded rule checksum between stale states and the rules.
func TestListsSnapshotCompiledCorruption(t *testing.T) {
	data, _ := snapshotTestBytes(t)

	t.Run("bit flip under trailer", func(t *testing.T) {
		b := bytes.Clone(data)
		i := bytes.Index(b, []byte(artifact.SectionPrefix)) + 80 // inside section data
		b[i] ^= 0x01
		if _, err := ParseListsSnapshot(b); corruptReason(err) != "checksum-mismatch" {
			t.Fatalf("err = %v, want checksum-mismatch", err)
		}
	})

	payload, _, err := artifact.OpenVersion(data)
	if err != nil {
		t.Fatalf("OpenVersion: %v", err)
	}

	t.Run("bit flip in section, resealed", func(t *testing.T) {
		// Every section in turn: its own frame checksum is all that sees it.
		_, secs, _, err := artifact.OpenSections(data)
		if err != nil || len(secs) != 2 {
			t.Fatalf("%d sections, err %v", len(secs), err)
		}
		for _, sec := range secs {
			b := bytes.Clone(payload)
			at := bytes.Index(b, sec.Data) + len(sec.Data)/2
			b[at] ^= 0x01
			if _, err := ParseListsSnapshot(artifact.Seal(b)); corruptReason(err) != "section-checksum-mismatch" {
				t.Errorf("%s: err = %v, want section-checksum-mismatch", sec.Name, err)
			}
		}
	})

	t.Run("stale rules, resealed", func(t *testing.T) {
		// Edit one rule line without recompiling and frame the text anew, so
		// that the section verifies: the automaton's embedded rule CRC must
		// refuse the mismatch. The edited line is a rule and the count stands.
		edited := false
		stale := reframe(t, data, func(sec artifact.Section) []artifact.Section {
			if sec.Name == sectionName(rulesSection, 0) {
				sec.Data = bytes.Replace(sec.Data, []byte("baitserver.example^$script"), []byte("baitserver.example^$image"), 1)
				edited = true
			}
			return []artifact.Section{sec}
		})
		if !edited || bytes.Equal(stale, data) {
			t.Fatal("rule edit did not take")
		}
		if _, err := ParseListsSnapshot(stale); corruptReason(err) != "automaton-invalid" {
			t.Fatalf("err = %v, want automaton-invalid (stale automaton)", err)
		}
	})

	t.Run("sections on a pre-v3 schema", func(t *testing.T) {
		// No older schema is read, with sections or without: the version
		// refuses it before a section is looked at.
		b := bytes.Replace(bytes.Clone(payload), []byte(`"version":7`), []byte(`"version":2`), 1)
		if bytes.Equal(b, payload) {
			t.Fatal("version edit did not take")
		}
		if _, err := ParseListsSnapshot(artifact.Seal(b)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion (v2 with sections)", err)
		}
	})
}

// reframe returns file with every section put through edit — which returns
// what to frame in its place: the section itself, altered, none or several —
// framed anew, so that each frame checksum holds, and sealed.
func reframe(t *testing.T, file []byte, edit func(artifact.Section) []artifact.Section) []byte {
	t.Helper()
	return reframeUnder(t, file, func(primary []byte) []byte { return primary }, edit)
}

// reframeUnder is reframe with the header document edited too.
func reframeUnder(t *testing.T, file []byte, header func([]byte) []byte, edit func(artifact.Section) []artifact.Section) []byte {
	t.Helper()
	primary, secs, _, err := artifact.OpenSections(file)
	if err != nil {
		t.Fatal(err)
	}
	var edited []artifact.Section
	for _, sec := range secs {
		for _, out := range edit(sec) {
			edited = append(edited, artifact.Section{Name: out.Name, Data: out.Data})
		}
	}
	return sealed(header(bytes.Clone(primary)), edited)
}

// without is the reframe edit that leaves out the named sections.
func without(names ...string) func(artifact.Section) []artifact.Section {
	return func(sec artifact.Section) []artifact.Section {
		if slices.Contains(names, sec.Name) {
			return nil
		}
		return []artifact.Section{sec}
	}
}

// corruptReason is the CorruptError reason err carries, "" when it carries
// none.
func corruptReason(err error) string {
	var ce *artifact.CorruptError
	if errors.As(err, &ce) {
		return ce.Reason
	}
	return ""
}

// TestListsSnapshotMixedRoundTrip: lists of different sizes in one snapshot
// — one of them CompileTiered's copy, written as any list is — come back as
// they went in, region for region, each with exactly its rules and automaton
// sections, and answer as the linear scan.
func TestListsSnapshotMixedRoundTrip(t *testing.T) {
	flat := NewList("flat", benchRules(300))
	plain := NewList("copy", benchRules(500))
	data, err := MarshalListsSnapshot(&ListsSnapshot{Label: "mixed", Lists: []*List{flat, plain.CompileTiered(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	_, secs, _, err := artifact.OpenSections(data)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sec := range secs {
		names = append(names, sec.Name)
	}
	if want := []string{"rules.0", "automaton.0", "rules.1", "automaton.1"}; !slices.Equal(names, want) {
		t.Errorf("sections %v, want %v", names, want)
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Lists[0].AutomatonBytes(), flat.AutomatonBytes()) ||
		!bytes.Equal(snap.Lists[1].AutomatonBytes(), plain.AutomatonBytes()) {
		t.Fatal("automaton regions differ after the round trip")
	}
	assertAnswersAsOracle(t, "flat", flat, snap.Lists[0])
	assertAnswersAsOracle(t, "copy", plain, snap.Lists[1])
	if again, err := MarshalListsSnapshot(snap); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("the loaded snapshot does not write back the bytes it was read from (err %v)", err)
	}
}

// TestListsSnapshotMissingSectionRefused: the loader reads rules from
// their section and attaches and never compiles, so a list whose rules or
// automaton section is not in the file is section-malformed, whichever list
// it is; and one list's region standing in for another's is refused.
func TestListsSnapshotMissingSectionRefused(t *testing.T) {
	first := NewList("first", benchRules(100))
	second := NewList("second", benchRules(200))
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{first, second}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseListsSnapshot(reframe(t, data, without())); err != nil {
		t.Fatalf("reframed whole: %v", err)
	}
	for _, drop := range [][]string{
		{"automaton.0"},
		{"automaton.1"},
		{"automaton.0", "automaton.1"},
		{"rules.0"},
		{"rules.1"},
		{"rules.1", "automaton.1"},
	} {
		if _, err := ParseListsSnapshot(reframe(t, data, without(drop...))); corruptReason(err) != "section-malformed" {
			t.Errorf("without %v: err = %v, want section-malformed", drop, err)
		}
	}
	// A region carries the checksum of the rules it was compiled from, so
	// one list's region does not open against another list's rules.
	swapped := func(sec artifact.Section) []artifact.Section {
		if sec.Name == "automaton.1" {
			sec.Data = first.AutomatonBytes()
		}
		return []artifact.Section{sec}
	}
	if _, err := ParseListsSnapshot(reframe(t, data, swapped)); corruptReason(err) != "automaton-invalid" {
		t.Errorf("the first list's region as the second's: err = %v, want automaton-invalid", err)
	}
}

// TestListsSnapshotSectionOwnership: a section belongs to exactly one list
// or the file is refused. Each layout is framed anew and sealed, and every
// section in it is one the writer wrote — so each frame checksum holds, each
// automaton opens against its rules, and nothing but the ownership check
// stands between the file and a loader that would pick one of two sections
// of a name (the parent kept the last) or serve beside bytes it never read.
func TestListsSnapshotSectionOwnership(t *testing.T) {
	first := NewList("first", benchRules(100))
	second := NewList("second", benchRules(200))
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{first, second}})
	if err != nil {
		t.Fatal(err)
	}
	twice := func(name string) func(artifact.Section) []artifact.Section {
		return func(sec artifact.Section) []artifact.Section {
			if sec.Name == name {
				return []artifact.Section{sec, sec}
			}
			return []artifact.Section{sec}
		}
	}
	// also frames a copy of section from under the name as, behind it.
	also := func(from, as string) func(artifact.Section) []artifact.Section {
		return func(sec artifact.Section) []artifact.Section {
			if sec.Name == from {
				return []artifact.Section{sec, {Name: as, Data: sec.Data}}
			}
			return []artifact.Section{sec}
		}
	}
	for name, edit := range map[string]func(artifact.Section) []artifact.Section{
		"two automaton.0":         twice("automaton.0"),
		"two rules.1":             twice("rules.1"),
		"two automaton.1":         twice("automaton.1"),
		"stray automaton.2":       also("automaton.1", "automaton.2"),
		"schema 5's cold section": also("automaton.1", "automaton.cold.1"),
		"stray rules.2":           also("rules.0", "rules.2"),
		"a name of no kind":       also("rules.0", "notes"),
		"an index that is no int": also("rules.0", "rules.00"),
	} {
		_, err := ParseListsSnapshot(reframe(t, data, edit))
		if corruptReason(err) != "section-malformed" || !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("%s: err = %v, want section-malformed", name, err)
		}
	}
}

// TestListsSnapshotOlderSchemasRefused: one schema is read. Whatever
// carries no trailer is missing-trailer before its version is looked at; a
// sealed file of an older schema — testdata/parent-v3.snapshot and
// parent-v4.snapshot are the two commit b547b05 wrote, parent-v6-flat
// and parent-v6-tiered the two the last schema-6 build (6ef7c4f) did — is
// ErrSnapshotVersion, and the error says what converts it. The version is
// read before the list bodies are, so that a schema-4 file, whose "rules" is
// an array of lines where this schema has a count, is refused for its
// version and not for a JSON type.
func TestListsSnapshotOlderSchemasRefused(t *testing.T) {
	v1 := `{"format":"adwars-lists","version":1,"label":"old",` +
		`"lists":[{"name":"legacy","rules":["||ads.example.com^","@@||ads.example.com/ok$script"]}]}` + "\n"
	if _, err := ParseListsSnapshot([]byte(v1)); corruptReason(err) != "missing-trailer" {
		t.Errorf("unsealed v1: err = %v, want missing-trailer", err)
	}
	files := map[string][]byte{
		"sealed v1": artifact.Seal([]byte(v1)),
		"sealed v2": artifact.Seal([]byte(strings.Replace(v1, `"version":1`, `"version":2`, 1))),
		"sealed v4": artifact.Seal([]byte(strings.Replace(v1, `"version":1`, `"version":4`, 1))),
	}
	for _, name := range []string{"parent-v3.snapshot", "parent-v4.snapshot", "parent-v6-flat.snapshot", "parent-v6-tiered.snapshot"} {
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = file
	}
	for name, file := range files {
		_, err := ParseListsSnapshot(file)
		if !errors.Is(err, ErrSnapshotVersion) || !strings.Contains(err.Error(), "adwars-compact") {
			t.Errorf("%s: err = %v, want ErrSnapshotVersion naming adwars-compact", name, err)
		}
	}
}

// parentV4AsCurrent returns testdata/parent-v4.snapshot — the tiered
// snapshot commit b547b05 wrote — carried into the current
// schema with its keyword choice as that commit made it: its rule lines as
// the rules section, and as the automaton every rule under the run one of its
// two regions files it under (that commit's selection, read back off the
// regions: it drew runs from the Unicode-lowered pattern, so the build reads
// them there too). (adwars-compact converts such a file by compiling it
// afresh; the tests that want that commit's selection attach it here.)
func parentV4AsCurrent(t testing.TB) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "parent-v4.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	primary, secs, _, err := artifact.OpenSections(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Label string
		Lists []struct {
			Name  string
			Rules []string
		}
	}
	if err := json.Unmarshal(primary, &doc); err != nil || len(doc.Lists) != 1 || len(secs) != 2 {
		t.Fatalf("parent v4: %d lists, %d sections, err %v", len(doc.Lists), len(secs), err)
	}
	header := fmt.Sprintf(`{"format":"adwars-lists","version":%d,"label":%q,"lists":[{"name":%q,"rules":%d}]}`+"\n",
		ListsSnapshotVersion, doc.Label, doc.Lists[0].Name, len(doc.Lists[0].Rules))
	text := strings.Join(doc.Lists[0].Rules, "\n") + "\n"
	crc := artifact.Checksum([]byte(text))
	lowered := make([]*Rule, len(doc.Lists[0].Rules))
	for ord, line := range doc.Lists[0].Rules {
		r, err := Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		r.Pattern = strings.ToLower(r.Pattern)
		lowered[ord] = r
	}
	kws := make([]kwSpan, len(lowered))
	for _, sec := range secs {
		a, err := openAutomaton(sec.Data, len(lowered), crc)
		if err != nil {
			t.Fatal(err)
		}
		for s, f := range a.fail {
			own := a.outputs[a.outIdx[s] : a.outIdx[s+1]-(a.outIdx[f+1]-a.outIdx[f])]
			for _, o := range own {
				span, ok := findRun(lowered[o].Pattern, append(a.spelling(nil, uint32(s)), 0))
				if !ok {
					t.Fatalf("parent v4: rule %d is filed under no run of its pattern", o)
				}
				kws[o] = span
			}
		}
	}
	region := buildAutomaton(lowered, kws, nil, crc).Bytes()
	return sealed([]byte(header), []artifact.Section{
		{Name: "rules.0", Data: []byte(text)}, {Name: "automaton.0", Data: region}})
}

// pinnedLines is the fixed list TestSnapshotBytesPinned freezes: the lines
// of TestBuildDeterministic (every run occurs twice), keywords that share
// their first one and two symbols, exceptions beside them, a three-byte
// keyword, a rule with none but ubiquitous runs, two keyword-less rules and
// the element-hiding kinds.
func pinnedLines() []string {
	var lines []string
	for i := 0; i < 400; i++ {
		lines = append(lines,
			fmt.Sprintf("||aaa%03d.example/bbb%03d/ccc%03d.js", i, i, i),
			fmt.Sprintf("/ccc%03d/bbb%03d/aaa%03d^", i, i, i))
	}
	for i := 0; i < 40; i++ {
		lines = append(lines,
			fmt.Sprintf("||q%c%02d.test^", 'a'+i%26, i),
			fmt.Sprintf("/qa%c%02d/", 'a'+(i*7)%26, i),
			fmt.Sprintf("@@||qa%c%02dx.test^$script", 'a'+(i*7)%26, i))
	}
	return append(lines,
		"||xyz.example^",
		"|https://www.com/",
		"/ad/",
		"*^*",
		"news.example##.adblock-notice",
		"@@||trusted.example^$elemhide")
}

// TestSnapshotBytesPinned: not one byte of an automaton moved. The version
// is artifact.Version of the snapshot of pinnedLines, recorded again at every
// schema step — schema 5 moved the rule lines out of the JSON document into
// the rules section; schema 6 named the sections automaton.<i> (and gave a
// tiered list a second one over its hot rules); schema 7 has one automaton
// per list — each of which moves every file's bytes and compiles nothing
// differently. That is what the section checksums beside it say: the rules
// section's, and the automaton's, which is the checksum the flat list's one
// automaton had under schema 5 and in the file schema 4 pinned
// (a1af6d7ca59ef7a5), as commit 6ddcbf9 compiled it, before keyword selection
// was kept, the top of the build trie indexed and the payload sized once. So
// a list is served by the bytes it was served by.
func TestSnapshotBytesPinned(t *testing.T) {
	l := buildList(t, "pinned", pinnedLines()...)
	data, err := MarshalListsSnapshot(&ListsSnapshot{Label: "pinned", Lists: []*List{l}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := artifact.Version(data); err != nil || got != "3d3535b061ce10f1" {
		t.Errorf("snapshot: version %s (err %v), pinned %s", got, err, "3d3535b061ce10f1")
	}
	sections := map[string]uint64{"rules.0": 0x6c69d4de5413cc0d, "automaton.0": 0xc1e5f022cca6b1fd}
	_, secs, _, err := artifact.OpenSections(data)
	if err != nil || len(secs) != len(sections) {
		t.Fatalf("snapshot: %d sections (err %v), want %d", len(secs), err, len(sections))
	}
	for _, sec := range secs {
		if want := sections[sec.Name]; sec.CRC != want {
			t.Errorf("snapshot: section %s has crc %016x, pinned %016x", sec.Name, sec.CRC, want)
		}
	}
}

// sealed is artifact.SealSections into memory.
func sealed(primary []byte, sections []artifact.Section) []byte {
	var buf bytes.Buffer
	if err := artifact.SealSections(&buf, primary, sections); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
