package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
	"adwars/internal/features"
	"adwars/internal/ml"
)

// TestModelSnapshotDifferential is the serving-layer fidelity guarantee
// for the model path: the headline model trained on the real Table 3
// corpus, frozen to disk, and reloaded must produce bit-identical
// AdaBoost decision values to the in-memory original on every corpus
// script. Decisions are sums of exact ±alpha terms, so equality here is
// ==, not approximate.
func TestModelSnapshotDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the headline model; skipped in -short")
	}
	_, r := lab(t)
	corpus := &Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}

	snap, err := TrainHeadlineModel(corpus, 2, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ml.SaveModelSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ml.ParseModelSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FeatureSet != snap.FeatureSet || len(loaded.Vocab) != len(snap.Vocab) {
		t.Fatalf("snapshot shape changed: set %q/%q, vocab %d/%d",
			loaded.FeatureSet, snap.FeatureSet, len(loaded.Vocab), len(snap.Vocab))
	}

	set, err := features.SetFromString(loaded.FeatureSet)
	if err != nil {
		t.Fatal(err)
	}
	origVocab := features.NewVocab(snap.Vocab)
	loadVocab := features.NewVocab(loaded.Vocab)

	scripts := append(append([]string(nil), corpus.Positives...), corpus.Negatives...)
	evaluated := 0
	for i, src := range scripts {
		fs, err := features.ExtractSource(src, set)
		if err != nil {
			continue // unparseable scripts drop out of the corpus too
		}
		orig := snap.Model.Decision(origVocab.Project(fs))
		got := loaded.Model.Decision(loadVocab.Project(fs))
		if got != orig {
			t.Fatalf("script %d: reloaded decision %v != in-memory %v", i, got, orig)
		}
		evaluated++
	}
	if evaluated < 100 {
		t.Fatalf("only %d scripts evaluated; differential too weak", evaluated)
	}
	t.Logf("model round-trip: %d scripts, all decisions bit-identical", evaluated)
}

// TestListsSnapshotDifferential freezes the latest version of the three
// anti-adblock lists, reloads them, and checks that every listed domain
// (plus synthetic non-listed URLs) gets the same decision and the same
// firing rule from the reloaded lists as from the in-memory originals.
func TestListsSnapshotDifferential(t *testing.T) {
	l, _ := lab(t)
	orig := []*abp.List{
		l.Lists.AAK.LatestList(),
		l.Lists.EasyListAA.LatestList(),
		l.Lists.AWRL.LatestList(),
	}
	snap := &abp.ListsSnapshot{Label: "differential", Lists: orig}
	path := filepath.Join(t.TempDir(), "lists.json")
	if err := abp.SaveListsSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := abp.LoadListsSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Lists) != len(orig) {
		t.Fatalf("reloaded %d lists, want %d", len(loaded.Lists), len(orig))
	}

	checked := 0
	for i, ol := range orig {
		ll := loaded.Lists[i]
		if ll.Len() != ol.Len() {
			t.Fatalf("list %d: %d rules reloaded, want %d", i, ll.Len(), ol.Len())
		}
		var urls []string
		for _, d := range ol.Domains() {
			urls = append(urls,
				"http://"+d+"/ads/unit.js",
				"http://"+d+"/allowed",
				"http://sub."+d+"/bait.js",
			)
		}
		for j := 0; j < 50; j++ {
			urls = append(urls, fmt.Sprintf("http://unlisted%03d.example/app.js", j))
		}
		for _, u := range urls {
			q := abp.Request{URL: u, Type: abp.TypeScript, PageDomain: "publisher.example"}
			od, or := ol.MatchRequest(q)
			ld, lr := ll.MatchRequest(q)
			if od != ld {
				t.Fatalf("list %d %s: decision %v != %v", i, u, ld, od)
			}
			if (or == nil) != (lr == nil) || (or != nil && or.Raw != lr.Raw) {
				t.Fatalf("list %d %s: firing rule differs after reload", i, u)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d requests checked; differential too weak", checked)
	}
	t.Logf("lists round-trip: %d requests, all decisions and rules identical", checked)
}

// TestHeadlineDecisionsPinned folds the bits of every decision value the
// headline model gives the live crawl's scripts into one checksum and holds
// it to the literal commit 9f24f56 computed, when Decision still made one
// kernel call per (round, support vector): the compiled scorer may share
// kernel evaluations between rounds but not move a single bit.
func TestHeadlineDecisionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the headline model; skipped in -short")
	}
	l, r := lab(t)
	snap, err := TrainHeadlineModel(&Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}, 2, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vocab := features.NewVocab(snap.Vocab)
	var bits []byte
	for _, s := range live.Scripts {
		fs, err := features.ExtractSource(s.Source, features.SetKeyword)
		if err != nil {
			continue
		}
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(snap.Model.Decision(vocab.Project(fs))))
	}
	if len(bits) < 20*8 {
		t.Fatalf("only %d live scripts scored; digest too weak", len(bits)/8)
	}
	if got, want := artifact.Checksum(bits), uint64(0x7834037654fec602); got != want {
		t.Errorf("decisions over %d live scripts checksum to %#016x, commit 9f24f56 computed %#016x", len(bits)/8, got, want)
	}
}
