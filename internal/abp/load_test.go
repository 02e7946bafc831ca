package abp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adwars/internal/artifact"
)

// loadedView is everything a load derives of a list, by ordinal: each rule's
// fields and domains, its guard, and the page-domain index's entries.
func loadedView(l *List) string {
	var b strings.Builder
	for ord, r := range l.rules {
		fmt.Fprintf(&b, "%d %q %q %q %q %d %d %d %d %t %t %t %t %t %t %t %016x\n", ord, r.Raw, r.Pattern,
			r.Domains(), r.NotDomains(), r.types, r.notTypes, r.Kind, r.ThirdParty, r.DomainAnchor, r.StartAnchor,
			r.EndAnchor, r.MatchCase, r.DisableElemHide, r.DisableGenericHide, r.foldFree, l.guards[ord])
	}
	fmt.Fprintf(&b, "index %d rules: %v\n", l.dom.rules, l.dom.entries)
	return b.String()
}

// damagedLoads is a spread of damaged files, each framed anew so that every
// frame checksum holds: bytes of the region flipped at a stride, which the
// region's open, its walk or the filing refuses or lets through, and one
// rule line broken at a stride.
func damagedLoads(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	_, secs, _, err := artifact.OpenSections(data)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	edit := func(name string, at int, f func([]byte) []byte) {
		out[fmt.Sprintf("%s@%d", name, at)] = reframe(t, data, func(sec artifact.Section) []artifact.Section {
			if sec.Name == name {
				sec.Data = f(bytes.Clone(sec.Data))
			}
			return []artifact.Section{sec}
		})
	}
	region, text := len(secs[1].Data), secs[0].Data
	for at := 0; at < region; at += region/40 + 1 {
		edit("automaton.0", at, func(b []byte) []byte { b[at] ^= 0x5a; return b })
	}
	for at := 0; at < len(text); at += len(text)/10 + 1 {
		edit("rules.0", at, func(b []byte) []byte {
			if b[at] == '\n' {
				return append(b[:at:at], append([]byte("\n##[\n"), b[at+1:]...)...)
			}
			b[at] = '!'
			return b
		})
	}
	return out
}

// TestLoadSameOnAnyCoreCount: the load's parse, its walk beside the parse,
// its filing on every core and its section sums give the same list at
// GOMAXPROCS 1, 2 and 4 — every rule field, the domains, the guards and the
// page-domain index — and refuse each damaged file with the same error.
func TestLoadSameOnAnyCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rules, errs := ParseList(strings.Join(easyMixLines(1, 3*parallelRules), "\n"))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("easy", rules)}})
	if err != nil {
		t.Fatal(err)
	}
	damaged := damagedLoads(t, data)
	var want string
	wantErrs := map[string]string{}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		snap, err := ParseListsSnapshot(data)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		got := loadedView(snap.Lists[0])
		if procs == 1 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: the loaded list differs from GOMAXPROCS 1's", procs)
		}
		for name, file := range damaged {
			_, err := ParseListsSnapshot(file)
			if procs == 1 {
				wantErrs[name] = fmt.Sprint(err)
			} else if fmt.Sprint(err) != wantErrs[name] {
				t.Errorf("GOMAXPROCS %d, %s: err = %v, at GOMAXPROCS 1 %s", procs, name, err, wantErrs[name])
			}
		}
	}
	refused := 0
	for _, e := range wantErrs {
		if e != "<nil>" {
			refused++
		}
	}
	if refused < len(damaged)/2 {
		t.Errorf("only %d of %d damaged files refused: the rows exercise little", refused, len(damaged))
	}
}

// TestLoadBelowThresholdStartsNoGoroutine: a load of a list under
// parallelRules rules (and parallelLines lines) runs on the calling
// goroutine alone, on any number of cores; one rule over the threshold it
// fans out.
func TestLoadBelowThresholdStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		rules int
		some  bool
	}{{parallelRules - 1, false}, {parallelRules + 1, true}} {
		rules, errs := ParseList(strings.Join(easyMixLines(1, c.rules), "\n"))
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("list", rules)}})
		if err != nil {
			t.Fatal(err)
		}
		before := goroutinesStarted.Load()
		if _, err := ParseListsSnapshot(data); err != nil {
			t.Fatal(err)
		}
		if n := goroutinesStarted.Load() - before; (n > 0) != c.some {
			t.Errorf("a load of %d rules started %d goroutines", c.rules, n)
		}
	}
}

// TestRulesRefusalPrecedesRegion: a file whose rules section holds a line
// that is no rule and whose region has a bad magic is refused for the rule
// line, as when the region was opened only after the rules parsed — also
// when the region is opened beside the parse, above parallelRules on more
// than one core.
func TestRulesRefusalPrecedesRegion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{20, 2 * parallelRules} {
		rules, errs := ParseList(strings.Join(easyMixLines(1, n), "\n"))
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		data, err := MarshalListsSnapshot(&ListsSnapshot{Lists: []*List{NewList("list", rules)}})
		if err != nil {
			t.Fatal(err)
		}
		both := reframe(t, data, func(sec artifact.Section) []artifact.Section {
			b := bytes.Clone(sec.Data)
			switch sec.Name {
			case "rules.0":
				// The last line of the section becomes one no selector parses.
				cut := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
				b = append(b[:cut], "##[\n"...)
			case "automaton.0":
				copy(b, "XXXX")
			}
			return []artifact.Section{{Name: sec.Name, Data: b}}
		})
		_, err = ParseListsSnapshot(both)
		if !errors.Is(err, ErrBadSelector) || corruptReason(err) != "" {
			t.Errorf("%d rules: err = %v, want the rule line's ErrBadSelector", n, err)
		}
	}
}

// TestSaveWritesMarshalledBytes: SaveListsSnapshot seals straight into its
// file the bytes MarshalListsSnapshot returns, for one list and several, an
// empty list, a hiding-only list and a list above parallelRules; and a
// snapshot that cannot be written, or a write that fails, leaves no temp
// file and the file at path as it was.
func TestSaveWritesMarshalledBytes(t *testing.T) {
	build := func(name string, lines ...string) *List {
		l, errs := ParseAndBuild(name, strings.Join(lines, "\n"))
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		return l
	}
	one := build("one", "||ads.example^", "@@||ok.example^$script", "news.example##.ad")
	empty := NewList("empty", nil)
	hiding := build("hiding", "##.ad", "news.example##.banner", "news.example#@#.banner")
	large := build("large", easyMixLines(2, parallelRules+100)...)
	dir := t.TempDir()
	path := filepath.Join(dir, "lists.snap")
	for name, lists := range map[string][]*List{
		"one":     {one},
		"several": {one, empty, hiding, large},
		"empty":   {empty},
		"hiding":  {hiding},
		"large":   {large},
	} {
		s := &ListsSnapshot{Label: name, Lists: lists}
		want, err := MarshalListsSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveListsSnapshot(path, s); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the saved file (%d bytes, err %v) is not the marshalled %d bytes", name, len(got), err, len(want))
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewList("bad", []*Rule{{Raw: "/a/\n/b/", Kind: KindHTTPBlock, Pattern: "/a/"}})
	if err := SaveListsSnapshot(path, &ListsSnapshot{Lists: []*List{one, bad}}); err == nil {
		t.Error("a rule line holding a newline was saved")
	}
	failed := errors.New("disk full")
	if err := artifact.WriteAtomic(path, 0o644, func(w io.Writer) error {
		w.Write([]byte("half a file"))
		return failed
	}); !errors.Is(err, failed) {
		t.Errorf("a failed write returned %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"lists.snap"}) {
		t.Errorf("after the failed writes the directory holds %v", names)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("a failed write changed the file at path (err %v)", err)
	}
}
