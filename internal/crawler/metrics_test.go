package crawler

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsAccumulate(t *testing.T) {
	a, _, domains := buildWorld(300)
	var m Metrics
	cfg := Config{Metrics: &m}
	months := []time.Time{
		time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
	}
	total := 0
	for _, month := range months {
		res, err := CrawlMonth(context.Background(), a, domains, month, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Counts[StatusOK]
	}
	snap := &m
	if snap.PagesFetched.Load() != int64(total) {
		t.Fatalf("fetched = %d, want %d", snap.PagesFetched.Load(), total)
	}
	if snap.PagesMissing.Load() == 0 {
		t.Error("missing counter empty")
	}
	if snap.HARBytes.Load() == 0 {
		t.Error("HAR bytes not accumulated")
	}
	if snap.BusyNanos.Load() <= 0 {
		t.Error("busy time not tracked")
	}
	if !strings.Contains(snap.String(), "fetched=") {
		t.Error("snapshot string malformed")
	}
}

func TestMetricsNilSafe(t *testing.T) {
	a, _, domains := buildWorld(50)
	// No metrics configured: must not panic.
	if _, err := CrawlMonth(context.Background(), a, domains,
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsConcurrentCrawls(t *testing.T) {
	a, _, domains := buildWorld(200)
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			month := time.Date(2013+i, 5, 1, 0, 0, 0, 0, time.UTC)
			_, err := CrawlMonth(context.Background(), a, domains, month,
				Config{Metrics: &m})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	snap := &m
	if snap.PagesFetched.Load()+snap.PagesMissing.Load()+snap.PartialSnapshots.Load()+snap.Errors.Load() != int64(4*len(domains)) {
		t.Fatalf("counters lost updates: %s", snap)
	}
}
