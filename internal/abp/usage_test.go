package abp

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestUsageLoopCoverage drives the usage loop the dead-rule exhibit reads:
// traffic with counters on, then the rules that won a verdict compiled as a
// list of their own — what a list pruned by usage would ship. That list
// answers the same traffic as the whole one does, verdict and winning rule
// (every winner is in it, and a rule that won nothing only ever matched
// beside one that did), from a smaller automaton.
func TestUsageLoopCoverage(t *testing.T) {
	plain := NewList("loop", benchRules(2000))
	plain.EnableUsage()
	qs := queryMix()
	for _, q := range qs {
		plain.MatchRequest(q)
	}
	_, fired := plain.UsageProfile()
	var kept []*Rule
	for _, p := range fired {
		kept = append(kept, plain.Rules()[p[0]])
	}
	pruned := NewList("pruned", kept)
	matches := 0
	for _, q := range qs {
		wd, wr := plain.MatchRequestLinear(q)
		if d, r := pruned.MatchRequest(q); d != wd || raw(r) != raw(wr) {
			t.Fatalf("%q: pruned list answers (%v, %s), the whole list (%v, %s)", q.URL, d, raw(r), wd, raw(wr))
		}
		if wd != NoMatch {
			matches++
		}
	}
	if matches == 0 || len(kept) == 0 {
		t.Fatalf("query mix produced %d matches from %d rules", matches, len(kept))
	}
	if p, w := len(pruned.AutomatonBytes()), len(plain.AutomatonBytes()); p >= w {
		t.Fatalf("pruned automaton %dB not smaller than the whole list's %dB", p, w)
	}
}

// TestUsageCounters pins the recording semantics: exactly one hit per
// match verdict, attributed to the winning rule's ordinal, none for
// no-match, and the same attribution through the AppendHits/RecordUsage
// serving path and the non-ASCII token-index fallback.
func TestUsageCounters(t *testing.T) {
	l := buildList(t, "u",
		"||ads.example^",
		"@@||ads.example/allowed",
		"/banner.",
	)
	l.EnableUsage()
	q := func(u string) Request { return Request{URL: u, Type: TypeScript, PageDomain: "p.com"} }

	l.MatchRequest(q("http://ads.example/x.js"))      // block, ordinal 0
	l.MatchRequest(q("http://ads.example/allowed/a")) // exception, ordinal 1
	l.MatchRequest(q("http://x.com/banner.png"))      // block, ordinal 2
	l.MatchRequest(q("http://x.com/banner.café"))     // fallback path, ordinal 2
	l.MatchRequest(q("http://clean.example/app.js"))  // no match

	hits := l.AppendHits(nil, q("http://ads.example/y.js"))
	_, _, ord := DecideHits(hits)
	l.RecordUsage(ord) // ordinal 0 again
	l.RecordUsage(-1)  // no-match verdict: must be ignored

	got := l.Usage().Counts()
	want := []uint64{2, 1, 2}
	for ord, w := range want {
		if got[ord] != w {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if n, fired := l.UsageProfile(); n != 3 || !slices.Equal(fired, [][2]uint64{{0, 2}, {1, 1}, {2, 2}}) {
		t.Fatalf("UsageProfile = %d, %v; want 3 HTTP rules, each fired", n, fired)
	}
	// Disabled lists record nothing and stay nil.
	off := NewList("off", l.Rules())
	if off.Usage() != nil {
		t.Fatal("usage bank present without EnableUsage")
	}
	if n, fired := off.UsageProfile(); n != 3 || fired == nil || len(fired) != 0 {
		t.Fatalf("UsageProfile without counters = %d, %v; want 3 HTTP rules, none fired", n, fired)
	}
}

// TestUsageRecordZeroAllocs extends the hot-path allocation gate to
// counter recording: matching with usage enabled must still not allocate.
func TestUsageRecordZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	list := NewList("gate", benchRules(2000))
	list.EnableUsage()
	qs := make([]Request, len(benchURLs))
	for i, u := range benchURLs {
		qs[i] = Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		list.MatchRequest(qs[i%len(qs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("MatchRequest with usage enabled allocates %.1f/op, want 0", allocs)
	}
}

// TestUsageStress is the loadgen-ledger-style reconciliation gate, meant
// for -race: GOMAXPROCS goroutines hammer a usage-enabled list while
// readers merge the shards concurrently, and the final merge must equal
// the exact number of matching verdicts issued — sharded counters may
// not lose or double-count a single hit.
func TestUsageStress(t *testing.T) {
	list := NewList("stress", benchRules(2000))
	list.EnableUsage()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 5000
	qs := queryMix()

	var wg sync.WaitGroup
	issued := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n uint64
			for i := 0; i < perWorker; i++ {
				q := qs[(w+i)%len(qs)]
				if d, _ := list.MatchRequest(q); d != NoMatch {
					n++
				}
				// The serving path records through AppendHits+RecordUsage.
				if i%16 == 0 {
					var buf [8]Hit
					_, _, ord := DecideHits(list.AppendHits(buf[:0], q))
					list.RecordUsage(ord)
					if ord >= 0 {
						n++
					}
				}
			}
			issued[w] = n
		}(w)
	}
	// Concurrent aggregate readers: merges mid-traffic must be safe (the
	// values they see are per-counter consistent, monotone snapshots).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tot := usageTotal(list); tot < last {
					t.Error("usage total went backwards")
					return
				} else {
					last = tot
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var want uint64
	for _, n := range issued {
		want += n
	}
	if want == 0 {
		t.Fatal("stress issued no matching verdicts")
	}
	if got := usageTotal(list); got != want {
		t.Fatalf("per-ordinal counts sum %d != issued matches %d", got, want)
	}
}

// usageTotal is the merged hit count across all of l's rules.
func usageTotal(l *List) uint64 {
	var sum uint64
	for _, c := range l.Usage().Counts() {
		sum += c
	}
	return sum
}

// TestUsageShardSpread sanity-checks the stack-address shard hash: under
// concurrent recording from many goroutines, more than one shard bank
// must take writes (otherwise sharding is decorative).
func TestUsageShardSpread(t *testing.T) {
	u := newUsage(4)
	if len(u.banks) == 1 {
		t.Skip("single-P process: sharding degenerates legitimately")
	}
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				u.record(i % 4)
			}
		}()
	}
	wg.Wait()
	touched := 0
	for i := range u.banks {
		var n uint64
		for ord := range u.banks[i].counters {
			n += u.banks[i].counters[ord].Load()
		}
		if n > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("all writes landed in %d shard(s) of %d", touched, len(u.banks))
	}
}
