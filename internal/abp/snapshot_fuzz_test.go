package abp

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adwars/internal/artifact"
)

// snapshotFuzzFiles are the well-formed files FuzzReadListsSnapshot starts
// from: the two the parent of PR 14 wrote (schema 3 and 4) and one of each
// kind this build writes, over two lists so that a section can land on the
// wrong one.
func snapshotFuzzFiles(t testing.TB) [][]byte {
	t.Helper()
	var files [][]byte
	for _, name := range []string{"parent-v3.snapshot", "parent-v4.snapshot"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
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
	plain := &ListsSnapshot{Label: "fuzz", Lists: []*List{first, second}}
	tiered := &ListsSnapshot{Label: "fuzz", Lists: []*List{
		first.CompileTiered(func(ord int) bool { return ord%2 == 0 }),
		second.CompileTiered(func(ord int) bool { return ord%3 == 0 }),
	}}
	for _, w := range []struct {
		write func(io.Writer, *ListsSnapshot) error
		snap  *ListsSnapshot
	}{
		{WriteListsSnapshot, plain},
		{WriteListsSnapshotCompiled, plain},
		{WriteListsSnapshotTiered, tiered},
	} {
		var buf bytes.Buffer
		if err := w.write(&buf, w.snap); err != nil {
			t.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	return files
}

// snapshotFuzzSeeds is file and what damage at section granularity makes of
// it: cut at every section boundary and in the middle of every section
// (trailer lost, as a torn write leaves it — the fuzz target also reseals
// whatever it is given), sections in reverse order, every section twice,
// every section's bytes under its neighbour's name, and both — the loader
// keeps the last section of a name — after the right ones.
func snapshotFuzzSeeds(t testing.TB, file []byte) [][]byte {
	t.Helper()
	payload, _, err := artifact.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	primary, secs, err := artifact.SplitSections(payload)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(names, data []artifact.Section) []byte {
		p := bytes.Clone(primary)
		for i := range names {
			p = artifact.AppendSection(p, names[i].Name, data[i].Data)
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
// `make fuzz-smoke` runs it for ten seconds; plain `go test` runs the seeds.
func FuzzReadListsSnapshot(f *testing.F) {
	for _, file := range snapshotFuzzFiles(f) {
		for _, seed := range snapshotFuzzSeeds(f, file) {
			f.Add(seed)
		}
	}
	var requests []Request
	requests = append(requests, snapshotTestRequests()...)
	for _, c := range nonASCIICases {
		requests = append(requests, Request{URL: c.url, Type: TypeScript, PageDomain: "page.com"})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		payload := data
		if i := bytes.LastIndex(data, []byte(artifact.TrailerPrefix)); i >= 0 {
			payload = data[:i]
		}
		for _, file := range [][]byte{data, artifact.Seal(payload)} {
			snap, err := ReadListsSnapshot(bytes.NewReader(file))
			if err != nil {
				continue
			}
			for _, l := range snap.Lists {
				oracle := NewList(l.Name, l.Rules())
				for _, q := range requests {
					assertMatchesOracle(t, l.Name, oracle, l, q)
				}
			}
		}
	})
}
