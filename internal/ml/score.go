package ml

import (
	"encoding/binary"

	"adwars/internal/features"
)

// scorer is the compiled scoring form of a trained model. Boosting
// re-weights one training set and anti-adblock scripts are vendor clones,
// so the rounds of an ensemble share most of their support vectors: the
// scorer holds each distinct vector once, and every round names its support
// vectors by distinct-id (SVM.ids). Scoring a sample evaluates each distinct
// kernel value once and then sums every round over those values in the
// round's stored order — the same products in the same order as a kernel
// call per (round, vector), so decision values are bit-identical to that
// loop.
//
// A scorer is built by compile when a model comes into being (end of
// training, ParseModelSnapshot) and never written afterwards, so concurrent
// Decision calls need no synchronization.
type scorer struct {
	// kernel is the one kernel of the compiled rounds, and table[d] its
	// value exp(-γ·d) at integer distance d (filled by RBF.evalCounts
	// itself, so an entry and a direct call are the same bits).
	kernel RBF
	table  []float64
	// pops[d] is distinct vector d's popcount.
	pops []int32
	// post[postOff[f]:postOff[f+1]] lists the distinct vectors that hold
	// feature f, so one walk over a sample's features yields its
	// intersection size with every distinct vector.
	postOff []int32
	post    []int32
}

// scratchVectors is the number of distinct vectors Decision scores from
// stack scratch; larger models allocate per call.
const scratchVectors = 256

// compile builds the shared scoring form of models — one SVM, or the rounds
// of an ensemble — and points each model at it. The models share one kernel
// (every round trains under one config; adaBoostFromJSON refuses a file
// whose rounds differ in γ). Support vectors must be sorted, duplicate-free
// and non-negative (training produces them so; svmFromJSON checks).
func compile(models ...*SVM) *scorer {
	sc := &scorer{}
	if len(models) > 0 {
		sc.kernel = models[0].kernel
	}
	var vectors []features.Sample
	seen := make(map[string]int32)
	var key []byte
	maxPop, numFeatures := 0, 0
	for _, m := range models {
		m.sc = sc
		m.ids = make([]int32, len(m.vectors))
		for i, v := range m.vectors {
			key = key[:0]
			for _, f := range v {
				key = binary.LittleEndian.AppendUint32(key, uint32(f))
			}
			id, ok := seen[string(key)]
			if !ok {
				id = int32(len(vectors))
				seen[string(key)] = id
				vectors = append(vectors, v)
				sc.pops = append(sc.pops, int32(len(v)))
				maxPop = max(maxPop, len(v))
				if len(v) > 0 {
					numFeatures = max(numFeatures, int(v[len(v)-1])+1)
				}
			}
			m.ids[i] = id
		}
	}

	sc.postOff = make([]int32, numFeatures+1)
	for _, v := range vectors {
		for _, f := range v {
			sc.postOff[f+1]++
		}
	}
	used := 0 // features at least one vector holds
	for f := 0; f < numFeatures; f++ {
		if sc.postOff[f+1] > 0 {
			used++
		}
		sc.postOff[f+1] += sc.postOff[f]
	}
	sc.post = make([]int32, sc.postOff[numFeatures])
	next := append([]int32(nil), sc.postOff[:numFeatures]...)
	for d, v := range vectors {
		for _, f := range v {
			sc.post[next[f]] = int32(d)
			next[f]++
		}
	}

	// A sample made of features the vectors hold is at most maxPop+used
	// away from any of them; anything farther (a sample with many features
	// no vector holds) is evaluated directly.
	sc.table = make([]float64, maxPop+used+1)
	for d := range sc.table {
		sc.table[d] = sc.kernel.evalCounts(d, 0, 0)
	}
	return sc
}

// numFeatures returns one more than the largest feature index any vector
// holds.
func (sc *scorer) numFeatures() int { return len(sc.postOff) - 1 }

// values returns K(vector d, s) for every distinct vector d, in buf when
// the model fits it.
func (sc *scorer) values(s features.Sample, buf *[scratchVectors]float64) []float64 {
	if sc == nil {
		return nil
	}
	n := len(sc.pops)
	var cntBuf [scratchVectors]int32
	kv, cnt := buf[:], cntBuf[:]
	if n > scratchVectors {
		kv, cnt = make([]float64, n), make([]int32, n)
	}
	kv, cnt = kv[:n], cnt[:n]

	numFeatures := sc.numFeatures()
	for _, f := range s {
		if uint32(f) >= uint32(numFeatures) {
			continue // a feature no vector holds intersects nothing
		}
		for _, d := range sc.post[sc.postOff[f]:sc.postOff[f+1]] {
			cnt[d]++
		}
	}
	for d, pop := range sc.pops {
		inter := int(cnt[d])
		if dist := len(s) + int(pop) - 2*inter; uint(dist) < uint(len(sc.table)) {
			kv[d] = sc.table[dist]
		} else {
			kv[d] = sc.kernel.evalCounts(int(pop), len(s), inter)
		}
	}
	return kv
}

// decide sums one round over the distinct kernel values kv, in the order
// the round's support vectors were stored.
func (m *SVM) decide(kv []float64) float64 {
	v := m.bias
	for i, id := range m.ids {
		v += m.coefs[i] * kv[id]
	}
	return v
}

// sign maps a decision value to its label.
func sign(v float64) int {
	if v >= 0 {
		return +1
	}
	return -1
}
