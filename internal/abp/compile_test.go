package abp

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adwars/internal/artifact"
)

// TestCompileBytesPinnedAcrossCores: compile's per-rule phases and its
// keyword sort run on every core above parallelRules rules, and no core count
// moves a byte. The checksums are those of the whole and the hot region of
// easyShaped(1, 20_000, 0)'s lines, and of their first parallelRules∓1, tiered
// with every fifth rule hot, as the sibling-list build compiled them (recorded
// before the sorted breadth-first build replaced it). TestSnapshotBytesPinned's
// 880 rules never make a wide or a deep trie; these do.
func TestCompileBytesPinnedAcrossCores(t *testing.T) {
	lines, _ := easyShaped(1, 20_000, 0)
	pins := []struct {
		rules      int
		whole, hot uint64
	}{
		{parallelRules - 1, 0x22344eaa0380b8f4, 0x2b899a7ce6d52665},
		{parallelRules + 1, 0x784d287fc702ec81, 0xf6278e3226e6387c},
		{20_000, 0x262b2363430b278c, 0xaf05427200b1b8ea},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, p := range pins {
			rules, errs := ParseList(strings.Join(lines[:p.rules], "\n"))
			if len(errs) > 0 || len(rules) != p.rules {
				t.Fatalf("%d lines: %d rules, errors %v", p.rules, len(rules), errs)
			}
			tl := NewList("pin", rules).CompileTiered(func(ord int) bool { return ord%5 == 0 })
			if got := artifact.Checksum(tl.AutomatonBytes()); got != p.whole {
				t.Errorf("GOMAXPROCS %d, %d rules: whole region crc %016x, pinned %016x", procs, p.rules, got, p.whole)
			}
			if got := artifact.Checksum(tl.HotAutomatonBytes()); got != p.hot {
				t.Errorf("GOMAXPROCS %d, %d rules: hot region crc %016x, pinned %016x", procs, p.rules, got, p.hot)
			}
		}
	}
}

// TestCompileBelowThresholdStartsNoGoroutine: a list under parallelRules
// rules compiles on the calling goroutine alone, on any number of cores —
// every list of paper_pipeline's revision history is one. The trie of this
// one has about four nodes a rule, so no phase may count nodes to decide.
func TestCompileBelowThresholdStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rules, errs := ParseList(strings.Join(easyMixLines(1, parallelRules-1), "\n"))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	before := goroutinesStarted.Load()
	NewList("below", rules).CompileTiered(func(ord int) bool { return ord%5 == 0 })
	if n := goroutinesStarted.Load() - before; n != 0 {
		t.Errorf("a compile of %d rules started %d goroutines", len(rules), n)
	}
	// The count is live: the same list one rule over the threshold fans out.
	if rules, errs = ParseList(strings.Join(easyMixLines(1, parallelRules+1), "\n")); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	before = goroutinesStarted.Load()
	NewList("above", rules)
	if goroutinesStarted.Load() == before {
		t.Errorf("a compile of %d rules started no goroutine", len(rules))
	}
}

// TestCompileLeavesNoGoroutines: every goroutine a compile starts has ended
// when NewList or CompileTiered returns.
func TestCompileLeavesNoGoroutines(t *testing.T) {
	lines, _ := easyShaped(1, parallelRules+1, 0)
	rules, errs := ParseList(strings.Join(lines, "\n"))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		NewList("leak", rules).CompileTiered(func(ord int) bool { return ord%5 == 0 })
	}
	// A goroutine that has signalled its WaitGroup may take a moment to exit.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines: %d before 100 compiles, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestConcurrentCompiles: compiles running at once, each fanning out and
// each taking its scratch from the shared pool, build what one compile
// alone does. Run under -race.
func TestConcurrentCompiles(t *testing.T) {
	lines, _ := easyShaped(2, parallelRules+1, 0)
	rules, errs := ParseList(strings.Join(lines, "\n"))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	keep := func(ord int) bool { return ord%5 == 0 }
	want := NewList("want", rules).CompileTiered(keep)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got := NewList("got", rules).CompileTiered(keep)
				if !bytes.Equal(got.AutomatonBytes(), want.AutomatonBytes()) || !bytes.Equal(got.HotAutomatonBytes(), want.HotAutomatonBytes()) {
					t.Errorf("worker %d, compile %d: regions differ from a lone compile's", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHidingRulesCompileBytes: a compile sizes its selection tables by the
// list's HTTP rules, not by all its rules. NewList over 10 000 "##.c" rules —
// none of them HTTP — allocates what any list of 10 000 rules keeps (its rule
// slice, keyword spans, guards and membership tables) and little more; it
// allocated ≈ 830 KB while selection was sized by every rule.
func TestHidingRulesCompileBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const n, budget = 10_000, 400_000
	rules, errs := ParseList(strings.Repeat("##.c\n", n))
	if len(rules) != n || len(errs) != 0 {
		t.Fatalf("%d rules, errors %v; want %d rules", len(rules), errs, n)
	}
	NewList("hide", rules)
	var before, after runtime.MemStats
	const runs = 5
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewList("hide", rules)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d hiding rules: NewList allocates %d bytes", n, bytes)
	if bytes > budget {
		t.Errorf("NewList over %d hiding rules allocates %d bytes, budget %d", n, bytes, budget)
	}
}
