package chassis

import (
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 99; i++ {
		h.Observe(1000) // ~1µs
	}
	h.Observe(1_000_000) // one 1ms outlier
	if p50 := h.Quantile(0.50); p50 > 2048 {
		t.Errorf("p50 = %dns, want ≈1µs bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 > 2048 {
		t.Errorf("p99 = %dns landed in the outlier bucket", p99)
	}
	if p100 := h.Quantile(1.0); p100 < 1<<19 {
		t.Errorf("p100 = %dns, want ≥ the outlier's bucket", p100)
	}
	want := `{"count":100,"mean_ns":10990,"p50_ns":1024,"p90_ns":1024,"p99_ns":1024,"max_ns":1000000}`
	if got := JSON(h); got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}

// TestHistogramQuantileCumulative: a quantile is read over everything ever
// observed, so reading it again forgets nothing.
func TestHistogramQuantileCumulative(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.99); got == 0 || got > 2048 {
		t.Fatalf("p99 = %dns, want ≈1µs bucket", got)
	}
	// Ten slow observations after a hundred fast ones: p99 reaches them,
	// p50 stays with the fast ones.
	for i := 0; i < 10; i++ {
		h.Observe(16 * time.Millisecond)
	}
	for range 2 {
		if got := h.Quantile(0.99); got < uint64((16 * time.Millisecond).Nanoseconds()) {
			t.Fatalf("p99 = %dns, want >= 16ms", got)
		}
		if got := h.Quantile(0.5); got == 0 || got > 2048 {
			t.Fatalf("p50 = %dns, want ≈1µs bucket", got)
		}
	}
}
