// Package stats provides the small statistical helpers the experiment
// harness uses: empirical CDFs (Figures 3 and 7), month schedules and
// labels (Figures 1, 5, 6), and the deterministic hash every simulated draw
// is keyed by.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Render prints the CDF sampled at the given x positions, one "x p" row per
// line — the series behind Figures 3 and 7.
func (c *CDF) Render(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%10.0f  %6.3f\n", x, c.At(x))
	}
	return b.String()
}

// MonthsBetween returns the first day of every month from start to end
// inclusive (both normalized to their month starts).
func MonthsBetween(start, end time.Time) []time.Time {
	cur := time.Date(start.Year(), start.Month(), 1, 0, 0, 0, 0, time.UTC)
	last := time.Date(end.Year(), end.Month(), 1, 0, 0, 0, 0, time.UTC)
	var out []time.Time
	for !cur.After(last) {
		out = append(out, cur)
		cur = cur.AddDate(0, 1, 0)
	}
	return out
}

// MonthLabel formats a month as the paper's axis labels do ("2016-07").
func MonthLabel(t time.Time) string { return t.Format("2006-01") }

// Lerp linearly interpolates between a (at frac 0) and b (at frac 1).
func Lerp(a, b, frac float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return a + (b-a)*frac
}

// Hash64 is the deterministic 64-bit hash every simulated draw is keyed
// by: FNV-1a over the bytes fmt.Sprintf("%s|%s|%d|%d", salt, domain, epoch,
// seed) would produce, fed without formatting or allocation.
func Hash64(salt, domain string, epoch, seed int64) uint64 {
	var num [20]byte
	h := fnv1a(14695981039346656037, salt) // the FNV-1a 64 offset basis
	h = fnv1a(fnv1a(h, "|"), domain)
	h = fnv1a(fnv1a(h, "|"), string(strconv.AppendInt(num[:0], epoch, 10)))
	return fnv1a(fnv1a(h, "|"), string(strconv.AppendInt(num[:0], seed, 10)))
}

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// HashFloat maps Hash64 to [0,1).
func HashFloat(salt, domain string, epoch, seed int64) float64 {
	return float64(Hash64(salt, domain, epoch, seed)>>11) / float64(1<<53)
}
