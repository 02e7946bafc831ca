package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := map[float64]float64{0: 0, 1: 0.25, 2.5: 0.5, 4: 1, 100: 1}
	for x, want := range cases {
		if got := c.At(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestCDFEmptyAndQuantile(t *testing.T) {
	empty := NewCDF(nil)
	if empty.At(5) != 0 {
		t.Error("empty CDF should be 0 everywhere")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return true
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFRender(t *testing.T) {
	c := NewCDF([]float64{-100, 0, 100})
	out := c.Render([]float64{-180, 0, 180})
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestMonthsBetween(t *testing.T) {
	months := MonthsBetween(
		time.Date(2011, 8, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 7, 2, 0, 0, 0, 0, time.UTC))
	if len(months) != 60 {
		t.Fatalf("months = %d, want 60", len(months))
	}
	if MonthLabel(months[0]) != "2011-08" || MonthLabel(months[59]) != "2016-07" {
		t.Fatalf("endpoints = %s..%s", MonthLabel(months[0]), MonthLabel(months[59]))
	}
	if !sort.SliceIsSorted(months, func(i, j int) bool { return months[i].Before(months[j]) }) {
		t.Fatal("months must be sorted")
	}
}

func TestLerp(t *testing.T) {
	if Lerp(0, 10, 0.5) != 5 {
		t.Error("midpoint wrong")
	}
	if Lerp(0, 10, -1) != 0 || Lerp(0, 10, 2) != 10 {
		t.Error("clamping wrong")
	}
}

// TestHash64MatchesFmt holds Hash64 to the bytes it replaced: FNV-1a of the
// formatted tuple, negative epochs and seeds and empty strings included.
func TestHash64MatchesFmt(t *testing.T) {
	cases := []struct {
		salt, domain string
		epoch, seed  int64
	}{
		{"content", "example.com", 2014, 42},
		{"", "", 0, 0},
		{"adopt", "", -1, -42},
		{"", "b.org", math.MinInt64, math.MaxInt64},
		{"fault|fetch|3", "ünï.com", -24193, math.MinInt64},
	}
	for _, c := range cases {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d|%d", c.salt, c.domain, c.epoch, c.seed)
		if got := Hash64(c.salt, c.domain, c.epoch, c.seed); got != h.Sum64() {
			t.Errorf("Hash64%+v = %x, want %x", c, got, h.Sum64())
		}
		if got, want := HashFloat(c.salt, c.domain, c.epoch, c.seed), float64(h.Sum64()>>11)/float64(1<<53); got != want {
			t.Errorf("HashFloat%+v = %v, want %v", c, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Hash64("content", "example.com", -2014, 42) }); n != 0 {
		t.Errorf("Hash64 allocates %v times, want 0", n)
	}
}
