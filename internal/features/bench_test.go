package features

import (
	"fmt"
	"testing"

	"adwars/internal/jsast"
)

const benchScript = `
BlockAdBlock.prototype._creatBait = function() {
  var bait = document.createElement('div');
  bait.setAttribute('class', 'pub_300x250 textads banner_ad');
  this._var.bait = window.document.body.appendChild(bait);
  this._var.bait.offsetHeight;
  this._var.bait.clientWidth;
};
if (window.document.body.getAttribute('abp') !== null) { detected = true; }
`

// BenchmarkExtract measures feature extraction per feature set.
func BenchmarkExtract(b *testing.B) {
	prog, err := jsast.Parse(benchScript)
	if err != nil {
		b.Fatal(err)
	}
	for _, set := range Sets {
		b.Run(set.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fs := Extract(prog, set); len(fs) == 0 {
					b.Fatal("no features")
				}
			}
		})
	}
}

// BenchmarkProjectProgram measures the served path's replacement for
// Extract followed by Vocab.Project: the same walk, looked up in a
// vocabulary holding every other feature of the script instead of collected
// into a map. The one allocation it reports is the sample.
func BenchmarkProjectProgram(b *testing.B) {
	prog, err := jsast.Parse(benchScript)
	if err != nil {
		b.Fatal(err)
	}
	for _, set := range Sets {
		ds, err := Build([]map[string]bool{Extract(prog, set)}, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		var names []string
		for i := 0; i < len(ds.Vocab); i += 2 {
			names = append(names, ds.Vocab[i])
		}
		vocab := NewVocab(names)
		b.Run(set.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := vocab.ProjectProgram(prog, set); len(s) != len(names) {
					b.Fatalf("%d hits, vocabulary of %d", len(s), len(names))
				}
			}
		})
	}
}

func benchFeatureDataset(b *testing.B, n, vocab int) *Dataset {
	b.Helper()
	var sets []map[string]bool
	var labels []int
	// Each feature must clear the variance filter (support fraction p with
	// p(1-p) ≥ 0.01 means roughly p ≥ 0.011), so give every sample enough
	// features that average support is well above the cutoff.
	perSample := 15 * vocab / n
	if perSample < 12 {
		perSample = 12
	}
	for i := 0; i < n; i++ {
		m := map[string]bool{}
		for j := 0; j < perSample; j++ {
			m[fmt.Sprintf("f%04d", (i*7+j*13)%vocab)] = true
		}
		sets = append(sets, m)
		if i%11 == 0 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, -1)
		}
	}
	ds, err := Build(sets, labels)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkSelectPipeline measures the paper's full selection pipeline
// (variance filter → dedup → chi-square top-k).
func BenchmarkSelectPipeline(b *testing.B) {
	ds := benchFeatureDataset(b, 1000, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ds.SelectPipeline(500); out.NumFeatures() == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkChiSquare measures chi-square scoring alone (the ablation
// contrast is variance-only filtering, which skips this cost).
func BenchmarkChiSquare(b *testing.B) {
	ds := benchFeatureDataset(b, 1000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ds.ChiSquare(); len(s) == 0 {
			b.Fatal("no scores")
		}
	}
}
