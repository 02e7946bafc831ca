package features

import (
	"fmt"
	"sort"
)

// Sample is a sparse binary feature vector: the sorted indices of features
// present in one script.
type Sample []int32

// Popcount returns the number of set features. Construction keeps the
// index list deduplicated and sorted, so the popcount is the slice length
// — an O(1) read kernel inner loops rely on instead of re-deriving vector
// norms.
func (s Sample) Popcount() int { return len(s) }

// IntersectionSize returns |s ∩ t| by merging the two sorted index lists.
func (s Sample) IntersectionSize(t Sample) int {
	i, j, n := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Dataset is a labeled collection of sparse binary samples over a shared
// vocabulary. Labels are +1 (anti-adblock) and -1 (benign).
type Dataset struct {
	Vocab   []string
	Samples []Sample
	Labels  []int
}

// Build constructs a Dataset from per-script feature sets and labels
// (+1/-1). The vocabulary is the sorted union of all features, making
// construction deterministic regardless of how the feature sets were
// produced (sequential or fanned out over the worker pool).
func Build(featureSets []map[string]bool, labels []int) (*Dataset, error) {
	if len(featureSets) != len(labels) {
		return nil, fmt.Errorf("features: %d samples but %d labels", len(featureSets), len(labels))
	}
	vocabSet := make(map[string]bool)
	for _, fs := range featureSets {
		for f := range fs {
			vocabSet[f] = true
		}
	}
	vocab := make([]string, 0, len(vocabSet))
	for f := range vocabSet {
		vocab = append(vocab, f)
	}
	sort.Strings(vocab)
	index := make(map[string]int, len(vocab))
	for i, f := range vocab {
		index[f] = i
	}

	ds := &Dataset{Vocab: vocab, Labels: append([]int(nil), labels...)}
	for _, fs := range featureSets {
		s := make(Sample, 0, len(fs))
		for f := range fs {
			s = append(s, int32(index[f]))
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		ds.Samples = append(ds.Samples, s)
	}
	return ds, nil
}

// NumFeatures returns the vocabulary size.
func (d *Dataset) NumFeatures() int { return len(d.Vocab) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// support returns, per feature, the number of positive and negative
// samples containing it.
func (d *Dataset) support() (pos, neg []int) {
	pos = make([]int, len(d.Vocab))
	neg = make([]int, len(d.Vocab))
	for i, s := range d.Samples {
		for _, f := range s {
			if d.Labels[i] > 0 {
				pos[f]++
			} else {
				neg[f]++
			}
		}
	}
	return pos, neg
}

// remap builds a new Dataset keeping only the features whose indices are in
// keep (which must be sorted ascending).
func (d *Dataset) remap(keep []int32) *Dataset {
	newIdx := make([]int32, len(d.Vocab))
	for i := range newIdx {
		newIdx[i] = -1
	}
	vocab := make([]string, len(keep))
	for newI, oldI := range keep {
		newIdx[oldI] = int32(newI)
		vocab[newI] = d.Vocab[oldI]
	}
	out := &Dataset{Vocab: vocab, Labels: d.Labels, Samples: make([]Sample, 0, len(d.Samples))}
	for _, s := range d.Samples {
		var ns Sample
		for _, f := range s {
			if ni := newIdx[f]; ni >= 0 {
				ns = append(ns, ni)
			}
		}
		out.Samples = append(out.Samples, ns)
	}
	return out
}

// FilterVariance removes features whose empirical variance p(1-p) is below
// minVar (the paper removes features with variance < 0.01). Binary feature
// variance is p(1-p) with p the fraction of samples carrying the feature.
func (d *Dataset) FilterVariance(minVar float64) *Dataset {
	pos, neg := d.support()
	n := float64(d.Len())
	var keep []int32
	for f := range d.Vocab {
		p := float64(pos[f]+neg[f]) / n
		if p*(1-p) >= minVar {
			keep = append(keep, int32(f))
		}
	}
	return d.remap(keep)
}

// DeduplicateColumns removes features whose presence pattern across samples
// duplicates an earlier feature's (the paper's second filter). Of each
// group of identical columns, the lexicographically first feature name
// survives, making the result deterministic.
func (d *Dataset) DeduplicateColumns() *Dataset {
	// Column signatures: the sorted sample indices holding each feature,
	// bucketed by a 64-bit FNV-1a hash instead of materializing one key
	// string per column. Hash collisions fall back to an exact column
	// comparison, so distinct columns never merge.
	nf := len(d.Vocab)
	cols := make([][]int32, nf)
	for i, s := range d.Samples {
		for _, f := range s {
			cols[f] = append(cols[f], int32(i))
		}
	}
	hashes := make([]uint64, nf)
	for f := 0; f < nf; f++ {
		hashes[f] = colHash(cols[f])
	}
	seen := make(map[uint64][]int32, nf)
	var keep []int32
	// Vocab is sorted, so iterating in index order keeps the
	// lexicographically first name of each duplicate group.
	for f := 0; f < nf; f++ {
		dup := false
		for _, e := range seen[hashes[f]] {
			if colsEqual(cols[e], cols[f]) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[hashes[f]] = append(seen[hashes[f]], int32(f))
		keep = append(keep, int32(f))
	}
	return d.remap(keep)
}

// colHash is 64-bit FNV-1a over the column's sample indices.
func colHash(col []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range col {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	h ^= uint64(len(col))
	h *= 1099511628211
	return h
}

func colsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChiSquare computes the paper's chi-square statistic for every feature:
//
//	χ² = N (AD − CB)² / ((A+C)(B+D)(A+B)(C+D))
//
// with A/B the positive/negative samples containing the feature and C/D
// those not containing it.
func (d *Dataset) ChiSquare() []float64 {
	pos, neg := d.support()
	nPos, nNeg := 0, 0
	for _, l := range d.Labels {
		if l > 0 {
			nPos++
		} else {
			nNeg++
		}
	}
	n := float64(nPos + nNeg)
	out := make([]float64, len(d.Vocab))
	for f := range out {
		a := float64(pos[f])
		b := float64(neg[f])
		c := float64(nPos) - a
		dd := float64(nNeg) - b
		den := (a + c) * (b + dd) * (a + b) * (c + dd)
		if den == 0 {
			continue
		}
		diff := a*dd - c*b
		out[f] = n * diff * diff / den
	}
	return out
}

// SelectTopChiSquare keeps the k features with the highest chi-square
// scores (ties broken by feature name for determinism). If k exceeds the
// vocabulary size the dataset is returned unchanged.
func (d *Dataset) SelectTopChiSquare(k int) *Dataset {
	if k >= len(d.Vocab) {
		return d
	}
	scores := d.ChiSquare()
	order := make([]int32, len(d.Vocab))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return d.Vocab[order[i]] < d.Vocab[order[j]]
	})
	keep := append([]int32(nil), order[:k]...)
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	return d.remap(keep)
}

// SelectPipeline applies the paper's full selection pipeline: variance
// filter (0.01), duplicate removal, then top-k chi-square.
func (d *Dataset) SelectPipeline(k int) *Dataset {
	return d.FilterVariance(0.01).DeduplicateColumns().SelectTopChiSquare(k)
}

// Subset returns a dataset restricted to the given sample indices (shared
// vocabulary). Used by cross-validation.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Vocab: d.Vocab}
	for _, i := range idx {
		out.Samples = append(out.Samples, d.Samples[i])
		out.Labels = append(out.Labels, d.Labels[i])
	}
	return out
}
