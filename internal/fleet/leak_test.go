package fleet

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutineLeaks snapshots the goroutine count and registers a
// cleanup that fails the test if the count has not returned to (near)
// the baseline once the test body finishes. The gateway spawns
// goroutines for the health loop and its probes, and net/http for every
// connection; one stranded past shutdown would otherwise only surface
// as a slow production leak. The check polls briefly because goroutine
// teardown (idle connections, timer goroutines) is asynchronous.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // don't pile a leak report onto a real failure
		}
		// Allow a small tolerance: the runtime and net/http keep a few
		// service goroutines warm between requests.
		const tolerance = 3
		deadline := time.Now().Add(2 * time.Second)
		var after int
		for {
			runtime.GC() // nudge finalizer-driven teardown along
			after = runtime.NumGoroutine()
			if after <= before+tolerance || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if after > before+tolerance {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
		}
	})
}
