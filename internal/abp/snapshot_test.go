package abp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	if got.Compiled {
		t.Fatal("plain v2 snapshot claims to be compiled")
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
	h1 := orig.HiddenElements("news.example", elems)
	h2 := reloaded.HiddenElements("news.example", elems)
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
	if _, err := ParseListsSnapshot([]byte(`{"format":"nope","version":1}`)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("foreign format: err = %v, want ErrSnapshotFormat", err)
	}
	if _, err := ParseListsSnapshot([]byte(`garbage`)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("garbage: err = %v, want ErrSnapshotFormat", err)
	}
	if _, err := ParseListsSnapshot([]byte(`{"format":"adwars-lists","version":42,"lists":[]}`)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("future version: err = %v, want ErrSnapshotVersion", err)
	}
	bad := `{"format":"adwars-lists","version":1,"lists":[{"name":"x","rules":["##["]}]}`
	if _, err := ParseListsSnapshot([]byte(bad)); err == nil {
		t.Error("unparseable rule must error")
	}
}

// sealedListsBytes returns the raw sealed file bytes of a small snapshot.
func sealedListsBytes(t *testing.T) []byte {
	t.Helper()
	l, errs := ParseAndBuild("corruption-list", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Label: "unit", Lists: []*List{l}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestListsSnapshotIsSealed(t *testing.T) {
	data := sealedListsBytes(t)
	if !bytes.Contains(data, []byte(artifact.TrailerPrefix)) {
		t.Fatal("written snapshot carries no integrity trailer")
	}
	if !bytes.Contains(data, []byte(`"version":2`)) {
		t.Fatal("written snapshot is not schema version 2")
	}
	if _, err := ParseListsSnapshot(data); err != nil {
		t.Fatalf("clean sealed snapshot failed to load: %v", err)
	}
}

func TestListsSnapshotCorruptionDetected(t *testing.T) {
	data := sealedListsBytes(t)
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

// compiledListsBytes returns the raw sealed bytes of a small compiled (v3)
// snapshot plus the original in-memory list for differential checks.
func compiledListsBytes(t *testing.T) ([]byte, *List) {
	t.Helper()
	l, errs := ParseAndBuild("compiled-list", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	data, err := MarshalListsSnapshotCompiled(&ListsSnapshot{Label: "unit", Lists: []*List{l}})
	if err != nil {
		t.Fatal(err)
	}
	return data, l
}

func TestListsSnapshotCompiledRoundTrip(t *testing.T) {
	data, orig := compiledListsBytes(t)
	if !bytes.Contains(data, []byte(`"version":3`)) {
		t.Fatal("compiled snapshot is not schema version 3")
	}
	if !bytes.Contains(data, []byte(artifact.SectionPrefix)) {
		t.Fatal("compiled snapshot carries no automaton section")
	}
	snap, err := ParseListsSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Compiled {
		t.Fatal("Compiled = false after loading a v3 snapshot with sections")
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
	again, err := MarshalListsSnapshotCompiled(&ListsSnapshot{Label: "unit", Lists: []*List{orig}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("compiled snapshot serialization is not deterministic")
	}
}

// TestListsSnapshotCompiledCorruption is the compiled-snapshot corruption
// matrix. A flipped bit anywhere is caught by the outer trailer; the deeper
// cases reseal the damaged payload with a fresh (valid) trailer, so only
// the per-section CRC and the automaton's embedded rule checksum stand
// between a stale or damaged section and silently wrong match decisions.
func TestListsSnapshotCompiledCorruption(t *testing.T) {
	data, _ := compiledListsBytes(t)

	t.Run("bit flip under trailer", func(t *testing.T) {
		b := bytes.Clone(data)
		i := bytes.Index(b, []byte(artifact.SectionPrefix)) + 80 // inside section data
		b[i] ^= 0x01
		if _, err := ParseListsSnapshot(b); !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("err = %v, want artifact.ErrCorrupt", err)
		}
	})

	payload, sealed, err := artifact.Open(data)
	if err != nil || !sealed {
		t.Fatalf("Open: sealed=%v err=%v", sealed, err)
	}

	t.Run("bit flip in section, resealed", func(t *testing.T) {
		b := bytes.Clone(payload)
		mark := bytes.Index(b, []byte(artifact.SectionPrefix))
		hdrEnd := mark + bytes.IndexByte(b[mark:], '\n') + 1
		b[hdrEnd+16+8] ^= 0x01 // past padding and magic, inside automaton data
		if _, err := ParseListsSnapshot(artifact.Seal(b)); !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("err = %v, want artifact.ErrCorrupt (section checksum)", err)
		}
	})

	t.Run("stale rules, resealed", func(t *testing.T) {
		// Edit one rule line in the JSON without recompiling the section:
		// the automaton's embedded rule CRC must refuse the mismatch.
		b := bytes.Replace(bytes.Clone(payload),
			[]byte(`baitserver.example^$script`), []byte(`baitserver.example^$iframe`), 1)
		if bytes.Equal(b, payload) {
			t.Fatal("rule edit did not take")
		}
		_, err := ParseListsSnapshot(artifact.Seal(b))
		if !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("err = %v, want artifact.ErrCorrupt (stale automaton)", err)
		}
	})

	t.Run("sections on a pre-v3 schema", func(t *testing.T) {
		b := bytes.Replace(bytes.Clone(payload), []byte(`"version":3`), []byte(`"version":2`), 1)
		_, err := ParseListsSnapshot(artifact.Seal(b))
		if !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("err = %v, want artifact.ErrCorrupt (v2 with sections)", err)
		}
	})
}

// TestListsSnapshotV3WithoutSectionsRebuilds: a v3 document that carries no
// automaton sections is legal (a future producer may compile selectively) —
// the lists rebuild their automata and the snapshot reports Compiled=false.
func TestListsSnapshotV3WithoutSectionsRebuilds(t *testing.T) {
	l, errs := ParseAndBuild("v3-plain", snapshotTestList)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	payload, err := marshalListsJSON(&ListsSnapshot{Label: "unit", Lists: []*List{l}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseListsSnapshot(artifact.Seal(payload))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Compiled {
		t.Fatal("sectionless v3 snapshot claims to be compiled")
	}
	if d, _ := snap.Lists[0].MatchRequest(snapshotTestRequests()[0]); d != Blocked {
		t.Fatalf("decision = %v, want Blocked", d)
	}
}

func TestListsSnapshotLegacyV1StillLoads(t *testing.T) {
	legacy := `{"format":"adwars-lists","version":1,"label":"old",` +
		`"lists":[{"name":"legacy","rules":["||ads.example.com^","@@||ads.example.com/ok$script"]}]}` + "\n"
	snap, err := ParseListsSnapshot([]byte(legacy))
	if err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
	if snap.Label != "old" || snap.Rules() != 2 {
		t.Fatalf("legacy snapshot mis-parsed: label=%q rules=%d", snap.Label, snap.Rules())
	}
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

// TestSnapshotBytesPinned: not one byte of a snapshot moved. The two
// versions are artifact.Version of the flat and the tiered snapshot of
// pinnedLines as commit 6ddcbf9 wrote them, before keyword selection was
// kept, the top of the build trie indexed and the payload sized once.
func TestSnapshotBytesPinned(t *testing.T) {
	l := buildList(t, "pinned", pinnedLines()...)
	tl := l.CompileTiered(func(ord int) bool { return ord%3 == 0 })
	for _, c := range []struct {
		name    string
		marshal func(*ListsSnapshot) ([]byte, error)
		list    *List
		want    string
	}{
		{"flat", MarshalListsSnapshotCompiled, l, "292a4d90490667ac"},
		{"tiered", MarshalListsSnapshotTiered, tl, "6b41036ea2a6f6a1"},
	} {
		data, err := c.marshal(&ListsSnapshot{Label: "pinned", Lists: []*List{c.list}})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := artifact.Version(data); err != nil || got != c.want {
			t.Errorf("%s snapshot: version %s (err %v), commit 6ddcbf9 wrote %s", c.name, got, err, c.want)
		}
	}
}
