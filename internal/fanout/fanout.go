// Package fanout is the one worker pool of the repository: the crawl, the
// experiments' replay, feature extraction, the Gram matrix fill and
// cross-validation folds all fan out through ForEach. It imports nothing of
// the module, so a package that fans out links nothing else by it. No
// caller's width is set from outside: the crawl and the per-site work after
// it pass crawler.Browsers, every other caller 0.
package fanout

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) across a pool of workers
// goroutines; workers ≤ 0 means one per core (GOMAXPROCS), decided here
// for every caller. Indexes are fed in order, workers pull them as they
// free up, and fn writes its result into a caller-owned slot — so output
// order is the input order and a sequential merge over the results is
// deterministic regardless of scheduling.
//
// On context cancellation ForEach stops feeding new indexes, waits for
// in-flight fn calls to return, and reports ctx.Err(); fn is never called
// for unfed indexes, so callers can distinguish completed slots from
// untouched ones.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	return err
}
