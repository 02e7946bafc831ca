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

// The fixtures are the two snapshots the parent of PR 28 (a8062f5) wrote
// from benchRules(2000), schema 5 flat and tiered (every fourth rule kept),
// with what that commit answered from them. No loader reads either any more.
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

// TestConvertSchema5: the two files the parent commit wrote are refused by
// the loader, which says what converts them, and convert. Flat, each answers
// every query of testdata/parent-v5.answers.tsv — abp's tierQueries — as the
// parent answered it from its own file; tiered by the parent's hot set, a
// hot-only lookup answers as the parent's did too, and the tool prints the
// pair it wrote: the hot automaton and the whole one, no cold tier.
func TestConvertSchema5(t *testing.T) {
	answers, err := os.ReadFile(fixture("parent-v5.answers.tsv"))
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
	// asParent holds l to the parent's answers; hot says whether l is tiered
	// by the parent's hot set, so that its hot-only answers are the parent's.
	asParent := func(name string, l *abp.List, hot bool) {
		t.Helper()
		for _, line := range strings.Split(strings.TrimSuffix(string(answers), "\n"), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 7 {
				t.Fatalf("answers: %q", line)
			}
			q := abp.Request{URL: f[0], Type: abp.RequestType(f[1]), PageDomain: f[2]}
			full := l.AppendHits(nil, q)
			d, _, win := abp.DecideHits(full)
			md, mr := l.MatchRequest(q)
			if d.String() != f[3] || strconv.Itoa(win) != f[4] || ords(full) != f[5] || md != d || (win >= 0) != (mr != nil) || mr != nil && mr != l.Rules()[win] {
				t.Errorf("%s: %s %s from %s: (%v, %d, hits %s), MatchRequest %v; the parent answered (%s, %s, hits %s)",
					name, q.Type, q.URL, q.PageDomain, d, win, ords(full), md, f[3], f[4], f[5])
			}
			if got := ords(l.AppendHitsHot(nil, q)); hot && got != f[6] {
				t.Errorf("%s: %s %s from %s: hot-only hits %s; the parent's were %s", name, q.Type, q.URL, q.PageDomain, got, f[6])
			}
		}
	}
	dir := t.TempDir()
	var hits []string
	for ord := 0; ord < 2000; ord += 4 {
		hits = append(hits, "["+strconv.Itoa(ord)+",1]")
	}
	usage := filepath.Join(dir, "usage.json")
	dump := `{"total_hits":500,"lists":[{"list":"parent-a8062f5","hits":[` + strings.Join(hits, ",") + `]}]}`
	if err := os.WriteFile(usage, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"parent-v5-flat.snapshot", "parent-v5-tiered.snapshot"} {
		old := fixture(file)
		if _, err := abp.LoadListsSnapshot(old); !errors.Is(err, abp.ErrSnapshotVersion) || !strings.Contains(err.Error(), "adwars-compact") {
			t.Fatalf("loading %s: err = %v, want ErrSnapshotVersion naming adwars-compact", file, err)
		}
		out := filepath.Join(dir, "lists.json")
		if err := run(old, "", out, 1, ""); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		snap, err := abp.LoadListsSnapshot(out)
		if err != nil {
			t.Fatalf("%s converted: %v", file, err)
		}
		if snap.Label != "written by a8062f5" || len(snap.Lists) != 1 || snap.Tiered() || snap.Rules() != 2000 {
			t.Fatalf("%s converted: label %q, %d lists, %d rules, tiered %v", file, snap.Label, len(snap.Lists), snap.Rules(), snap.Tiered())
		}
		// a8062f5 selected and built as this commit does: the whole automaton
		// is the one its flat file holds, compiled again.
		if !bytes.Equal(section(t, out, "automaton.0"), section(t, fixture("parent-v5-flat.snapshot"), "automaton.hot.0")) {
			t.Errorf("%s converted: automaton.0 is not the automaton a8062f5 compiled for the flat list", file)
		}
		asParent(file+" converted", snap.Lists[0], false)

		stdout := os.Stdout
		printed, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = printed
		err = run(old, usage, out, 1, "")
		os.Stdout = stdout
		printed.Close()
		if err != nil {
			t.Fatalf("%s with -usage: %v", file, err)
		}
		if snap, err = abp.LoadListsSnapshot(out); err != nil || !snap.Tiered() {
			t.Fatalf("%s tiered: tiered %v, err %v", file, snap != nil && snap.Tiered(), err)
		}
		if !bytes.Equal(section(t, out, "automaton.hot.0"), section(t, fixture("parent-v5-tiered.snapshot"), "automaton.hot.0")) {
			t.Errorf("%s tiered: automaton.hot.0 is not the hot region a8062f5 compiled for this hot set", file)
		}
		asParent(file+" tiered", snap.Lists[0], true)
		st := snap.Lists[0].TierStats()
		text, _ := os.ReadFile(printed.Name())
		want := regexp.MustCompile(fmt.Sprintf(`(?m)^  parent-a8062f5 +hot +%d rules +%d bytes / whole +%d bytes `, st.HotRules, st.HotBytes, st.ColdBytes))
		if !want.Match(text) || bytes.Contains(text, []byte("cold")) {
			t.Errorf("%s tiered: printed\n%s\nwant a line matching %s and no cold tier", file, text, want)
		}
	}
}

// TestConvertCurrentSchema: a file of the current schema goes through its
// own loader; without -usage a tiered one comes out flat, with the same
// rules and the same answers; with a usage dump a file of either schema is
// tiered in one step.
func TestConvertCurrentSchema(t *testing.T) {
	dir := t.TempDir()
	usage := filepath.Join(dir, "usage.json")
	dump := `{"total_hits":3,"lists":[{"list":"parent-a8062f5","hits":[[1,2],[5,1]]}]}`
	if err := os.WriteFile(usage, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "current.json")
	if err := run(fixture("parent-v5-tiered.snapshot"), usage, cur, 1, ""); err != nil {
		t.Fatal(err)
	}
	loaded, err := abp.LoadListsSnapshot(cur)
	if err != nil || !loaded.Tiered() {
		t.Fatalf("loading the current schema: tiered %v, err %v", loaded != nil && loaded.Tiered(), err)
	}

	flat := filepath.Join(dir, "flat.json")
	if err := run(cur, "", flat, 1, "relabelled"); err != nil {
		t.Fatal(err)
	}
	snap, err := abp.LoadListsSnapshot(flat)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Label != "relabelled" || snap.Tiered() || snap.Rules() != loaded.Rules() {
		t.Fatalf("flattened snapshot: label %q, tiered %v, %d rules (want %d)", snap.Label, snap.Tiered(), snap.Rules(), loaded.Rules())
	}
	for i, r := range snap.Lists[0].Rules() {
		if want := loaded.Lists[0].Rules()[i].Raw; r.Raw != want {
			t.Fatalf("flattened snapshot: rule %d is %q, was %q", i, r.Raw, want)
		}
	}
	assertLinear(t, snap.Lists[0])

	for _, in := range []string{fixture("parent-v5-flat.snapshot"), cur, flat} {
		tiered := filepath.Join(dir, "tiered.json")
		if err := run(in, usage, tiered, 1, ""); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		snap, err := abp.LoadListsSnapshot(tiered)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		l := snap.Lists[0]
		if !snap.Tiered() || !strings.HasSuffix(snap.Label, " [tiered]") || !l.IsHotRule(1) || !l.IsHotRule(5) || l.IsHotRule(6) {
			t.Fatalf("%s: tiered %v, label %q, hot(1,5,6) = %v %v %v", in, snap.Tiered(), snap.Label, l.IsHotRule(1), l.IsHotRule(5), l.IsHotRule(6))
		}
		assertLinear(t, l)
	}
}

// TestRefusesWhatItCannotVouchFor: the tool reads one more schema than the
// loader, not less carefully — no trailer, a damaged payload, a schema from
// before sealing and one two steps old are all refused, and nothing is
// written.
func TestRefusesWhatItCannotVouchFor(t *testing.T) {
	good, err := os.ReadFile(fixture("parent-v5-flat.snapshot"))
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
		"schema 7":              {artifact.Seal([]byte(`{"format":"adwars-lists","version":7,"lists":[]}`)), abp.ErrSnapshotVersion},
		"schema 6, no sections": {artifact.Seal([]byte(`{"format":"adwars-lists","version":6,"lists":[{"name":"x","rules":1}]}`)), artifact.ErrCorrupt},
		"schema 5, short":       {artifact.SealSections([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":2}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("||a.example^\n")}}), artifact.ErrCorrupt},
		"schema 5, comment":     {artifact.SealSections([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":1}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("! a comment\n")}}), abp.ErrCommentLine},
		"schema 5, lines":       {artifact.Seal([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":["||a^"]}]}`)), abp.ErrSnapshotFormat},
		"schema 5, no sections": {artifact.Seal([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":1}]}`)), artifact.ErrCorrupt},
		"schema 5, no lists":    {artifact.Seal([]byte(`{"format":"adwars-lists","version":5}`)), abp.ErrSnapshotFormat},
		"schema 4":              {artifact.Seal([]byte(`{"format":"adwars-lists","version":4,"lists":[{"name":"x","rules":["||a^"]}]}`)), abp.ErrSnapshotVersion},
		"foreign":               {artifact.Seal([]byte(`{"format":"adwars-model","version":2}`)), abp.ErrSnapshotFormat},
		"bad rule":              {artifact.SealSections([]byte(`{"format":"adwars-lists","version":5,"lists":[{"name":"x","rules":1}]}`+"\n"), []artifact.Section{{Name: "rules.0", Data: []byte("##[\n")}}), nil},
		"not there":             {nil, os.ErrNotExist},
	} {
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		os.Remove(in)
		if tc.data != nil {
			if err := os.WriteFile(in, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run(in, "", out, 1, "")
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%s: refused, and wrote %s all the same", name, out)
		}
	}
}
