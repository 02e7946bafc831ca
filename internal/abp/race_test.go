package abp

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentMatchSharedRules is the regression test for the lazy-
// compile data race: listgen shares *Rule values across revisions and
// MergeHistories shares them across histories, so two lists built from the
// same rules used to race on the first concurrent match. Run under
// `go test -race`.
func TestConcurrentMatchSharedRules(t *testing.T) {
	rules := benchRules(400)
	// Two lists sharing the same rule pointers — the shape MergeHistories
	// produces.
	a := NewList("a", rules)
	b := NewList("b", rules)
	bHiding := NewHiding(b)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			elems := []*Element{{Tag: "div", ID: fmt.Sprintf("notice%d", w*2)}}
			for i := 0; i < 200; i++ {
				u := benchURLs[(w+i)%len(benchURLs)]
				q := Request{URL: u, Type: TypeScript, PageDomain: "page.com"}
				da, _ := a.MatchRequest(q)
				db, _ := b.MatchRequest(q)
				if da != db {
					t.Errorf("lists sharing rules disagree: %v vs %v", da, db)
					return
				}
				a.AppendHits(nil, q)
				bHiding.HiddenElements("site0002.com", elems)
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentLazyCompile exercises the fallback path for rules built
// without Parse (no eager Precompile): the first match compiles the
// matcher, and the atomic publication keeps simultaneous first matches
// race-free.
func TestConcurrentLazyCompile(t *testing.T) {
	rules := make([]*Rule, 50)
	for i := range rules {
		rules[i] = &Rule{
			Raw:          fmt.Sprintf("||lazy%02d.com^", i),
			Kind:         KindHTTPBlock,
			Pattern:      fmt.Sprintf("lazy%02d.com^", i),
			DomainAnchor: true,
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, r := range rules {
				q := Request{URL: fmt.Sprintf("http://lazy%02d.com/x.js", i), PageDomain: "p.com"}
				if !r.MatchRequest(q) {
					t.Errorf("worker %d: rule %d must match its own domain", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentHistoryListAt asserts the per-revision compile cache is
// safe under the sharded replay's access pattern — many workers resolving
// lists for overlapping months — and that it really compiles once: every
// caller sees the same *List for the same revision.
func TestConcurrentHistoryListAt(t *testing.T) {
	h := NewHistory("concurrent")
	rules := benchRules(120)
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		h.Append(base.AddDate(0, i, 0), rules[:10*(i+1)])
	}

	lists := make([][]*List, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lists[w] = make([]*List, 12)
			for i := 0; i < 12; i++ {
				lists[w][i] = h.ListAt(base.AddDate(0, i, 0))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := 0; i < 12; i++ {
			if lists[w][i] != lists[0][i] {
				t.Fatalf("worker %d month %d got a distinct compile; cache must share", w, i)
			}
		}
	}
	if l := h.LatestList(); l != lists[0][11] {
		t.Fatal("LatestList must share the ListAt cache")
	}
}
