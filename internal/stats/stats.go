// Package stats provides the small statistical helpers the experiment
// harness uses: empirical CDFs (Figures 3 and 7), monthly time series
// (Figures 1, 5, 6), and basic summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Quantile returns the q-th quantile (0 ≤ q ≤ 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(q * float64(len(c.sorted)))
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
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

// MonthSeries is a time series with one value per month label.
type MonthSeries struct {
	Months []time.Time
	Values []float64
}

// Add appends one (month, value) point.
func (s *MonthSeries) Add(m time.Time, v float64) {
	s.Months = append(s.Months, m)
	s.Values = append(s.Values, v)
}

// At returns the value for month m (matched by year+month), or 0.
func (s *MonthSeries) At(m time.Time) float64 {
	for i, t := range s.Months {
		if t.Year() == m.Year() && t.Month() == m.Month() {
			return s.Values[i]
		}
	}
	return 0
}

// Last returns the final value, or 0 when empty.
func (s *MonthSeries) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
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
