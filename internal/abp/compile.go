package abp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelRules is the rule count from which compile's per-rule phases —
// keyword selection, the guards, the keyword sort — give every core a share
// of the rules, as parallelLines does for a parse: below it a phase takes
// well under a millisecond and a goroutine would cost more than it saves.
const parallelRules = 4096

// compileWorkers is how many shares a phase over n rules is cut into.
func compileWorkers(n int) int {
	if n < parallelRules {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// goroutinesStarted counts the goroutines fanOut has started.
var goroutinesStarted atomic.Int64

// fanOut runs f(0) to f(k-1), all but the first on goroutines of their own,
// and returns when every one has.
func fanOut(k int, f func(w int)) {
	if k > 1 {
		goroutinesStarted.Add(int64(k - 1))
	}
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// eachChunk cuts [0, n) into k ranges about equal in length and runs f on
// each (fanOut).
func eachChunk(k, n int, f func(c, lo, hi int)) {
	fanOut(k, func(c int) { f(c, c*n/k, (c+1)*n/k) })
}

// overlapped runs f and g at once above parallelRules rules on more than one
// core, one after the other otherwise.
func overlapped(n int, f, g func()) {
	if compileWorkers(n) == 1 {
		f()
		g()
		return
	}
	fanOut(2, func(w int) {
		if w == 0 {
			f()
		} else {
			g()
		}
	})
}

// compileScratch is the memory a compile works in and drops: selection's run
// tables and the automaton build's keyword sort and trie. It comes from one
// pool: a compile that no collection has emptied the pool before reuses the
// last one's instead of allocating and zeroing its own, and one that finds
// the pool empty allocates as it would without it. The pool gives it up over
// two collections, so no list's heap keeps it.
type compileScratch struct {
	sel   []selChunk
	build trieBuild
}

var scratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

func getScratch() *compileScratch { return scratchPool.Get().(*compileScratch) }

// putScratch returns sc to the pool, dropping the rule text it points into.
func putScratch(sc *compileScratch) {
	for i := range sc.sel {
		sc.sel[i].release()
	}
	scratchPool.Put(sc)
}

// selChunks returns k selection chunks.
func (sc *compileScratch) selChunks(k int) []selChunk {
	if len(sc.sel) < k {
		sc.sel = append(sc.sel, make([]selChunk, k-len(sc.sel))...)
	}
	return sc.sel[:k]
}
