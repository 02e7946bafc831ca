package features

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adwars/internal/jsast"
)

func parallelCorpus() []string {
	var srcs []string
	for i := 0; i < 30; i++ {
		srcs = append(srcs, fmt.Sprintf(`
var bait%d = document.createElement('div');
bait%d.setAttribute('class', 'ad_%d banner_ad');
if (document.body.getAttribute('abp') !== null) { detected%d = true; }
for (var i%d = 0; i%d < %d; i%d++) { total += bait%d.offsetHeight; }
`, i, i, i%5, i, i, i, i+2, i, i))
	}
	// Unparseable scripts must keep their slot and report an error, same
	// as ExtractSource in a sequential loop.
	srcs[7] = "((("
	srcs[22] = ")))"
	return srcs
}

// setProcs runs the rest of the test at GOMAXPROCS n and restores the
// previous value when it ends. A test that calls it must not be parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestExtractAllMatchesSequential proves the worker fan-out is invisible:
// per-slot feature sets and error positions are identical to a sequential
// ExtractSource loop on one core and on several.
func TestExtractAllMatchesSequential(t *testing.T) {
	srcs := parallelCorpus()
	for _, set := range Sets {
		wantSets := make([]map[string]bool, len(srcs))
		wantErr := make([]bool, len(srcs))
		for i, src := range srcs {
			fs, err := ExtractSource(src, set)
			if err != nil {
				wantErr[i] = true
				continue
			}
			wantSets[i] = fs
		}
		for _, procs := range []int{1, 3} {
			setProcs(t, procs)
			sets, errs, err := ExtractAll(context.Background(), srcs, []Set{set})
			if err != nil {
				t.Fatal(err)
			}
			for i := range srcs {
				if (errs[i] != nil) != wantErr[i] {
					t.Fatalf("set %v GOMAXPROCS %d: slot %d error mismatch", set, procs, i)
				}
				if !reflect.DeepEqual(sets[0][i], wantSets[i]) {
					t.Fatalf("set %v GOMAXPROCS %d: slot %d features diverge", set, procs, i)
				}
			}
		}
	}
}

// TestRunIsolatedConfinesPanics: a panicking worker-pool task must turn
// into an ErrPanic-wrapped error for its own slot, never a process crash.
func TestRunIsolatedConfinesPanics(t *testing.T) {
	err := RunIsolated(func() error { panic("boom in a pool task") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if !strings.Contains(err.Error(), "boom in a pool task") {
		t.Errorf("panic value lost from error: %v", err)
	}
	if err := RunIsolated(func() error { return nil }); err != nil {
		t.Fatalf("clean task reported %v", err)
	}
	// A panic mid-corpus must not poison neighbouring slots: run a real
	// fan-out and check every slot still gets its sequential result.
	srcs := parallelCorpus()
	sets, errs, err := ExtractAll(context.Background(), srcs, []Set{SetAll})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcs {
		if errs[i] != nil && errors.Is(errs[i], ErrPanic) {
			t.Fatalf("slot %d: unexpected panic error %v", i, errs[i])
		}
		if errs[i] == nil && sets[0][i] == nil {
			t.Fatalf("slot %d: no error but nil feature set", i)
		}
	}
}

// TestExtractAllCancellation checks a cancelled context stops the feed and
// reports the context error without touching unfed slots.
func TestExtractAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets, errs, err := ExtractAll(ctx, parallelCorpus(), []Set{SetAll})
	if err == nil {
		t.Fatal("want context error")
	}
	if len(sets[0]) != 30 || len(errs) != 30 {
		t.Fatal("slots must keep input length")
	}
}

// TestBuildOrderInsensitiveVocab: the vocabulary is a sorted union, so a
// dataset built from fan-out results equals one built sequentially.
func TestBuildOrderInsensitiveVocab(t *testing.T) {
	srcs := parallelCorpus()
	seq := make([]map[string]bool, 0, len(srcs))
	var labels []int
	for i, src := range srcs {
		fs, err := ExtractSource(src, SetAll)
		if err != nil {
			continue
		}
		seq = append(seq, fs)
		if i%2 == 0 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, -1)
		}
	}
	dsSeq, err := Build(seq, labels)
	if err != nil {
		t.Fatal(err)
	}

	par, errs, err := ExtractAll(context.Background(), srcs, []Set{SetAll})
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]map[string]bool, 0, len(srcs))
	for i := range par[0] {
		if errs[i] == nil {
			kept = append(kept, par[0][i])
		}
	}
	dsPar, err := Build(kept, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dsSeq.Vocab, dsPar.Vocab) {
		t.Fatal("vocab diverges between sequential and parallel builds")
	}
	if !reflect.DeepEqual(dsSeq.Samples, dsPar.Samples) {
		t.Fatal("samples diverge between sequential and parallel builds")
	}
}

// referenceDeduplicate is the seed's string-key implementation, kept as
// the oracle for the hash-based replacement.
func referenceDeduplicate(d *Dataset) *Dataset {
	cols := make([][]int32, len(d.Vocab))
	for i, s := range d.Samples {
		for _, f := range s {
			cols[f] = append(cols[f], int32(i))
		}
	}
	key := func(col []int32) string {
		b := make([]byte, 0, len(col)*4)
		for _, v := range col {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(b)
	}
	seen := make(map[string]int32)
	var keep []int32
	for f := range d.Vocab {
		k := key(cols[f])
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = int32(f)
		keep = append(keep, int32(f))
	}
	return d.remap(keep)
}

func dedupDataset(t *testing.T) *Dataset {
	t.Helper()
	var sets []map[string]bool
	var labels []int
	for i := 0; i < 60; i++ {
		m := map[string]bool{}
		// f-dup-a / f-dup-b share a column; f-solo varies; empty columns
		// (never-set features) collapse onto each other via Project-time
		// vocabulary, so also include one feature per sample group.
		if i%3 == 0 {
			m["f-dup-a"] = true
			m["f-dup-b"] = true
		}
		if i%4 == 0 {
			m["f-solo"] = true
		}
		m[fmt.Sprintf("f-group-%d", i%5)] = true
		if i%7 == 0 {
			m["f-dup-c"] = true
			m["a-dup-c"] = true // lexicographically first must survive
		}
		sets = append(sets, m)
		if i%10 == 0 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, -1)
		}
	}
	ds, err := Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDeduplicateColumnsHashEquivalence proves the FNV-bucketed dedup
// keeps exactly the columns the string-key reference kept.
func TestDeduplicateColumnsHashEquivalence(t *testing.T) {
	ds := dedupDataset(t)
	want := referenceDeduplicate(ds)
	got := ds.DeduplicateColumns()
	if !reflect.DeepEqual(got.Vocab, want.Vocab) {
		t.Fatalf("vocab %v != reference %v", got.Vocab, want.Vocab)
	}
	if !reflect.DeepEqual(got.Samples, want.Samples) {
		t.Fatal("samples diverge from reference")
	}
	// The survivor of the {a-dup-c, f-dup-c} group must be the
	// lexicographically first name.
	for _, f := range want.Vocab {
		if f == "f-dup-c" {
			t.Fatal("lexicographically later duplicate survived")
		}
	}
}

func TestPopcount(t *testing.T) {
	if got := (Sample{1, 5, 9}).Popcount(); got != 3 {
		t.Fatalf("Popcount = %d, want 3", got)
	}
	if got := (Sample{}).Popcount(); got != 0 {
		t.Fatalf("empty Popcount = %d, want 0", got)
	}
}

// TestExtractAllPanicCostsOneScript: ExtractAll parses a script once for
// every set, so a walk that panics under one set drops that script from
// every set, and no other script loses anything.
func TestExtractAllPanicCostsOneScript(t *testing.T) {
	srcs := parallelCorpus()
	const victim = 11
	defer func(orig func(*jsast.Program, Set) map[string]bool) { extract = orig }(extract)
	extract = func(prog *jsast.Program, set Set) map[string]bool {
		// The last set's walk fails, after the others have succeeded.
		if set == SetKeyword && Extract(prog, SetAll)["Identifier:bait11"] {
			panic("walk failed")
		}
		return Extract(prog, set)
	}
	sets, errs, err := ExtractAll(context.Background(), srcs, Sets)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[victim], ErrPanic) {
		t.Fatalf("slot %d err = %v, want ErrPanic", victim, errs[victim])
	}
	for s, set := range Sets {
		if sets[s][victim] != nil {
			t.Fatalf("panicked script kept its %v features", set)
		}
		for i, src := range srcs {
			if i == victim {
				continue
			}
			want, wantErr := ExtractSource(src, set)
			if (errs[i] != nil) != (wantErr != nil) || !reflect.DeepEqual(sets[s][i], want) {
				t.Fatalf("set %v: slot %d differs from ExtractSource", set, i)
			}
		}
	}
}
