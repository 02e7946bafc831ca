package ml

import (
	"math/rand"
	"testing"

	"adwars/internal/features"
)

func benchDataset(b *testing.B, nPos, nNeg int) *features.Dataset {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pool := make([]string, 60)
	for i := range pool {
		pool[i] = string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	var sets []map[string]bool
	var labels []int
	mk := func(offset int) map[string]bool {
		m := map[string]bool{}
		for j := 0; j < 6; j++ {
			m[pool[(offset+rng.Intn(20))%len(pool)]] = true
		}
		return m
	}
	for i := 0; i < nPos; i++ {
		sets = append(sets, mk(0))
		labels = append(labels, 1)
	}
	for i := 0; i < nNeg; i++ {
		sets = append(sets, mk(30))
		labels = append(labels, -1)
	}
	ds, err := features.Build(sets, labels)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkTrainSVM measures SMO training on a 10:1 imbalanced set.
func BenchmarkTrainSVM(b *testing.B) {
	ds := benchDataset(b, 30, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainAdaBoost measures the full ensemble (the ablation cost of
// boosting over a single SVM) and reports what the solves behind it cost,
// summed over the rounds kept: SMO sweeps, ordered decision sums
// accumulated, and solves that stopped at MaxIter instead of converging.
// Every iteration trains from the same seed, so the counts are exact.
func BenchmarkTrainAdaBoost(b *testing.B) {
	ds := benchDataset(b, 30, 300)
	b.ReportAllocs()
	b.ResetTimer()
	var ens *AdaBoost
	for i := 0; i < b.N; i++ {
		var err error
		if ens, err = TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
	var sweeps, decisions, capped int
	for _, m := range ens.models {
		sweeps += m.sweeps
		decisions += m.decisions
		if m.capped {
			capped++
		}
	}
	b.ReportMetric(float64(sweeps), "sweeps/op")
	b.ReportMetric(float64(decisions), "decisions/op")
	b.ReportMetric(float64(capped), "capped-solves/op")
}

// BenchmarkPredict measures single-sample classification latency (the
// online adblocker deployment of §5 scans scripts on the fly), and reports
// how many kernel evaluations the compiled scorer saves: total-sv support
// vectors are scored through distinct-sv kernel values.
func BenchmarkPredict(b *testing.B) {
	ds := benchDataset(b, 30, 300)
	m, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	s := ds.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(s)
	}
	b.ReportMetric(float64(m.NumSupportVectors()), "total-sv")
	b.ReportMetric(float64(len(m.sc.pops)), "distinct-sv")
}

// BenchmarkRBFKernel measures one kernel evaluation.
func BenchmarkRBFKernel(b *testing.B) {
	k := RBF{Gamma: 0.05}
	a := features.Sample{1, 5, 9, 30, 55, 70, 81, 93}
	c := features.Sample{2, 5, 9, 31, 54, 70, 82, 93}
	for i := 0; i < b.N; i++ {
		k.eval(a, c)
	}
}
