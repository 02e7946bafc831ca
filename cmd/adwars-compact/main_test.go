package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
)

// The fixtures are the two snapshots the last schema-6 build (6ef7c4f) wrote
// from abp's benchRules(2000), flat and tiered (every fourth rule kept hot),
// with what that commit's full lookups answered from them. No loader reads
// either any more.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "abp", "testdata", name)
}

// section returns the data of the named section of a sealed file.
func section(t *testing.T, path, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, secs, _, err := artifact.OpenSections(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if s.Name == name {
			return s.Data
		}
	}
	t.Fatalf("%s has no section %s", path, name)
	return nil
}

// assertLinear holds l to the linear scan over its own rules, on a URL made
// from every HTTP rule's pattern (so most of them hit something) asked from
// a first- and a third-party page.
func assertLinear(t *testing.T, l *abp.List) {
	t.Helper()
	strip := strings.NewReplacer("||", "", "|", "", "^", "/", "*", "x")
	hit := 0
	for _, r := range l.Rules() {
		if !r.IsHTTP() {
			continue
		}
		for _, page := range []string{"page.com", "host1.example", "host2.example"} {
			q := abp.Request{URL: "http://" + strip.Replace(r.Pattern), Type: abp.TypeScript, PageDomain: page}
			wd, wr := l.MatchRequestLinear(q)
			if d, got := l.MatchRequest(q); d != wd || got != wr {
				t.Fatalf("%q from %s: MatchRequest (%v, %v) != linear (%v, %v)", q.URL, page, d, got, wd, wr)
			}
			want := l.MatchingHTTPRulesLinear(q)
			hits := l.AppendHits(nil, q)
			if len(hits) != len(want) {
				t.Fatalf("%q from %s: %d hits != linear %d", q.URL, page, len(hits), len(want))
			}
			for i := range hits {
				if hits[i].Rule != want[i] {
					t.Fatalf("%q from %s: hit %d is %q, linear has %q", q.URL, page, i, hits[i].Rule.Raw, want[i].Raw)
				}
			}
			hit += len(hits)
		}
	}
	if hit == 0 {
		t.Fatal("no URL hit any rule: the comparison exercised nothing")
	}
}

// TestConvertSchema6: the two files the parent commit wrote are refused by
// the loader, which says what converts them, and convert — the tiered one to
// the flat list it stood for: one automaton, the parent's flat region byte
// for byte, answering every query of testdata/parent-v6.answers.tsv (abp's
// query mix) as the parent's full lookups did. The tool prints how each list's
// rules reach a probe.
func TestConvertSchema6(t *testing.T) {
	answers, err := os.ReadFile(fixture("parent-v6.answers.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	ords := func(hits []abp.Hit) string {
		s := make([]string, len(hits))
		for i, h := range hits {
			s[i] = strconv.Itoa(h.Ord)
		}
		return strings.Join(s, ",")
	}
	dir := t.TempDir()
	for _, file := range []string{"parent-v6-flat.snapshot", "parent-v6-tiered.snapshot"} {
		old := fixture(file)
		if _, err := abp.LoadListsSnapshot(old); !errors.Is(err, abp.ErrSnapshotVersion) || !strings.Contains(err.Error(), "adwars-compact") {
			t.Fatalf("loading %s: err = %v, want ErrSnapshotVersion naming adwars-compact", file, err)
		}
		out := filepath.Join(dir, "lists.json")
		stdout := os.Stdout
		printed, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = printed
		err = run(old, out, "")
		os.Stdout = stdout
		printed.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		snap, err := abp.LoadListsSnapshot(out)
		if err != nil {
			t.Fatalf("%s converted: %v", file, err)
		}
		if snap.Label != "written by 6ef7c4f" || len(snap.Lists) != 1 || snap.Rules() != 2000 {
			t.Fatalf("%s converted: label %q, %d lists, %d rules", file, snap.Label, len(snap.Lists), snap.Rules())
		}
		_, secs, _, err := artifact.OpenSections(mustRead(t, out))
		if err != nil || len(secs) != 2 {
			t.Fatalf("%s converted: %d sections (err %v), want rules.0 and automaton.0", file, len(secs), err)
		}
		// 6ef7c4f selected and built as this commit does: the automaton is the
		// one its flat file holds, compiled again.
		if !bytes.Equal(section(t, out, "automaton.0"), section(t, fixture("parent-v6-flat.snapshot"), "automaton.0")) {
			t.Errorf("%s converted: automaton.0 is not the region 6ef7c4f compiled for the flat list", file)
		}
		l := snap.Lists[0]
		for _, line := range strings.Split(strings.TrimSuffix(string(answers), "\n"), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 6 {
				t.Fatalf("answers: %q", line)
			}
			q := abp.Request{URL: f[0], Type: abp.RequestType(f[1]), PageDomain: f[2]}
			full := l.AppendHits(nil, q)
			d, _, win := abp.DecideHits(full)
			md, mr := l.MatchRequest(q)
			if d.String() != f[3] || strconv.Itoa(win) != f[4] || ords(full) != f[5] || md != d || (win >= 0) != (mr != nil) || mr != nil && mr != l.Rules()[win] {
				t.Errorf("%s: %s %s from %s: (%v, %d, hits %s), MatchRequest %v; the parent answered (%s, %s, hits %s)",
					file, q.Type, q.URL, q.PageDomain, d, win, ords(full), md, f[3], f[4], f[5])
			}
		}
		st := l.TierStats()
		text, _ := os.ReadFile(printed.Name())
		want := regexp.MustCompile(fmt.Sprintf(`(?m)^adwars-compact: schema 6 -> 7: 1 lists, 2000 rules\n  parent-6ef7c4f +automaton +%d bytes +by keyword %d \(%d guarded\), page domain %d, generic %d$`,
			len(l.AutomatonBytes()), st.KeywordRules, st.GuardedRules, st.DomainRules, st.GenericRules))
		if !want.Match(text) {
			t.Errorf("%s: printed\n%s\nwant a match for %s", file, text, want)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConvertCurrentSchema: a file of the current schema goes through its
// own loader and comes out with the same rules, the same answers and, with
// -label, a new label.
func TestConvertCurrentSchema(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "current.json")
	if err := run(fixture("parent-v6-tiered.snapshot"), cur, ""); err != nil {
		t.Fatal(err)
	}
	loaded, err := abp.LoadListsSnapshot(cur)
	if err != nil {
		t.Fatalf("loading the current schema: %v", err)
	}
	again := filepath.Join(dir, "again.json")
	if err := run(cur, again, "relabelled"); err != nil {
		t.Fatal(err)
	}
	snap, err := abp.LoadListsSnapshot(again)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Label != "relabelled" || snap.Rules() != loaded.Rules() {
		t.Fatalf("converted again: label %q, %d rules (want %d)", snap.Label, snap.Rules(), loaded.Rules())
	}
	for i, r := range snap.Lists[0].Rules() {
		if want := loaded.Lists[0].Rules()[i].Raw; r.Raw != want {
			t.Fatalf("converted again: rule %d is %q, was %q", i, r.Raw, want)
		}
	}
	if !bytes.Equal(section(t, again, "automaton.0"), section(t, cur, "automaton.0")) {
		t.Error("converted again: the automaton moved")
	}
	assertLinear(t, snap.Lists[0])
}

// TestRefusesWhatItCannotVouchFor: the tool reads one more schema than the
// loader, not less carefully — no trailer, a damaged payload, a schema from
// before sealing, one from the future and one two steps old are all refused,
// and nothing is written.
func TestRefusesWhatItCannotVouchFor(t *testing.T) {
	good, err := os.ReadFile(fixture("parent-v6-flat.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x01
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"unsealed":              {good[:bytes.LastIndex(good, []byte(artifact.TrailerPrefix))], artifact.ErrCorrupt},
		"bit flip":              {flipped, artifact.ErrCorrupt},
		"schema 1":              {artifact.Seal([]byte(`{"format":"adwars-lists","version":1,"lists":[]}`)), abp.ErrSnapshotVersion},
		"schema 8":              {artifact.Seal([]byte(`{"format":"adwars-lists","version":8,"lists":[]}`)), abp.ErrSnapshotVersion},
		"schema 7, no sections": {artifact.Seal([]byte(`{"format":"adwars-lists","version":7,"lists":[{"name":"x","rules":1}]}`)), artifact.ErrCorrupt},
		"schema 6, short":       {artifact.SealSections([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":2}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("||a.example^\n")}}), artifact.ErrCorrupt},
		"schema 6, comment":     {artifact.SealSections([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":1}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("! a comment\n")}}), abp.ErrCommentLine},
		"schema 6, lines":       {artifact.Seal([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":["||a^"]}]}`)), abp.ErrSnapshotFormat},
		"schema 6, no sections": {artifact.Seal([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":1}]}`)), artifact.ErrCorrupt},
		"schema 6, no lists":    {artifact.Seal([]byte(`{"format":"adwars-lists","version":6}`)), abp.ErrSnapshotFormat},
		"schema 5":              {artifact.SealSections([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":1}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("||a.example^\n")}}), abp.ErrSnapshotVersion},
		"schema 4":              {artifact.Seal([]byte(`{"format":"adwars-lists","version":4,"lists":[{"name":"x","rules":["||a^"]}]}`)), abp.ErrSnapshotVersion},
		"foreign":               {artifact.Seal([]byte(`{"format":"adwars-model","version":2}`)), abp.ErrSnapshotFormat},
		"bad rule":              {artifact.SealSections([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":1}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("##[\n")}}), nil},
		"not there":             {nil, os.ErrNotExist},
	} {
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		os.Remove(in)
		if tc.data != nil {
			if err := os.WriteFile(in, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run(in, out, "")
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%s: refused, and wrote %s all the same", name, out)
		}
	}
}
