package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 200
	var counts [n]int32
	if err := ForEach(context.Background(), 7, n, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, c)
		}
	}
}

func TestForEachZeroWorkersAndZeroItems(t *testing.T) {
	var ran atomic.Int32
	if err := ForEach(context.Background(), 0, 3, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("ForEach with 0 workers: %v", err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran = %d, want 3 (0 workers means one per core)", n)
	}
	if err := ForEach(context.Background(), 4, 0, func(i int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatalf("ForEach with 0 items: %v", err)
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	visited := make(map[int]bool)
	err := ForEach(ctx, 2, 1000, func(i int) {
		mu.Lock()
		visited[i] = true
		if len(visited) == 10 {
			cancel()
		}
		mu.Unlock()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(visited) >= 1000 {
		t.Fatal("cancellation did not stop the feed")
	}
	// Every fed index ran to completion; none were abandoned half-done —
	// the map contains exactly the indexes fn was called with.
	for i := range visited {
		if i < 0 || i >= 1000 {
			t.Fatalf("unexpected index %d", i)
		}
	}
}
