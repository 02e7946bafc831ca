package chassis

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log₂-bucketed latency histogram: bucket i counts
// observations with ceil(log₂(ns)) == i, covering 1ns through ~2.3 hours.
// Quantiles are read as the upper bound of the bucket where the cumulative
// count crosses the quantile — at most one power of two of error, which is
// plenty for p50/p99 serving dashboards.
type Histogram struct {
	buckets [44]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
	maxNs   atomic.Uint64
}

func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	i := bits.Len64(ns)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Quantile returns the approximate q-quantile (0 < q ≤ 1) in nanoseconds of
// everything observed: the upper bound 2^i of the bucket i where the
// cumulative count reaches q of the total, 0 when nothing was observed or
// the quantile falls in bucket 0.
func (h *Histogram) Quantile(q float64) uint64 {
	var counts [len(h.buckets)]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := max(uint64(q*float64(total)), 1)
	var seen uint64
	for i, n := range counts {
		if seen += n; seen >= want {
			if i == 0 {
				return 0
			}
			return 1 << uint(i)
		}
	}
	return 0 // not reached: seen ends at total ≥ want
}

// MarshalJSON renders the histogram as every dashboard reads it.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	s := struct {
		Count  uint64 `json:"count"`
		MeanNs uint64 `json:"mean_ns"`
		P50Ns  uint64 `json:"p50_ns"`
		P90Ns  uint64 `json:"p90_ns"`
		P99Ns  uint64 `json:"p99_ns"`
		MaxNs  uint64 `json:"max_ns"`
	}{
		Count: h.count.Load(),
		P50Ns: h.Quantile(0.50),
		P90Ns: h.Quantile(0.90),
		P99Ns: h.Quantile(0.99),
		MaxNs: h.maxNs.Load(),
	}
	if s.Count > 0 {
		s.MeanNs = h.sumNs.Load() / s.Count
	}
	return json.Marshal(s)
}
