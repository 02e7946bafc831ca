package abp

import (
	"fmt"
	"testing"
)

// Edge cases pinned down while replacing the recursive matcher with the
// iterative glob and routing lookups through the automaton.

func TestCaretZeroWidthAtEndWithMatchCase(t *testing.T) {
	r := mustParse(t, "|http://x.com/Path^$match-case")
	if !r.MatchRequest(req("http://x.com/Path", "x.com", TypeScript)) {
		t.Error("'^' must match zero-width at end of URL")
	}
	if !r.MatchRequest(req("http://x.com/Path/", "x.com", TypeScript)) {
		t.Error("'^' must still match a real separator")
	}
	if r.MatchRequest(req("http://x.com/path", "x.com", TypeScript)) {
		t.Error("$match-case must reject a case-mangled path")
	}
	if r.MatchRequest(req("http://x.com/Pathology", "x.com", TypeScript)) {
		t.Error("'^' must not match a letter")
	}
}

func TestConsecutiveStarCollapse(t *testing.T) {
	r := mustParse(t, "/a**b.js")
	if !r.MatchRequest(req("http://x.com/a-long-bridge-b.js", "x.com", TypeScript)) {
		t.Error("consecutive stars must behave like one star")
	}
	if !r.MatchRequest(req("http://x.com/ab.js", "x.com", TypeScript)) {
		t.Error("consecutive stars must match the empty string")
	}
	tripled := mustParse(t, "|http://x.com/***end|")
	if !tripled.MatchRequest(req("http://x.com/the-end", "x.com", TypeScript)) {
		t.Error("star runs inside anchors must collapse too")
	}
	if tripled.MatchRequest(req("http://x.com/the-end?x", "x.com", TypeScript)) {
		t.Error("end anchor must still bind after a star run")
	}
}

func TestDomainAnchorOnSchemeRelativeURL(t *testing.T) {
	r := mustParse(t, "||cdn.com^")
	if !r.MatchRequest(req("//cdn.com/x.js", "page.com", TypeScript)) {
		t.Error("'||' must anchor immediately after a scheme-relative '//'")
	}
	if !r.MatchRequest(req("//sub.cdn.com/x.js", "page.com", TypeScript)) {
		t.Error("'||' must match subdomains of scheme-relative URLs")
	}
	if r.MatchRequest(req("//notcdn.com/x.js", "page.com", TypeScript)) {
		t.Error("'||' must respect the domain boundary on scheme-relative URLs")
	}
}

func TestExceptionBeatsBlockThroughIndex(t *testing.T) {
	// The exception and the block sit under different keywords; the
	// automaton path must still give the exception precedence, exactly like
	// the linear reference.
	l := buildList(t, "test",
		"/ads.js?",
		"||numerama.com^",
		"@@||numerama.com/ads.js",
	)
	q := req("http://numerama.com/ads.js?v=2", "numerama.com", TypeScript)
	dec, rule := l.MatchRequest(q)
	if dec != Allowed {
		t.Fatalf("indexed decision = %v, want Allowed", dec)
	}
	if rule == nil || !rule.IsException() {
		t.Fatalf("winning rule = %v, want the exception", rule)
	}
	ldec, lrule := l.MatchRequestLinear(q)
	if ldec != dec || lrule != rule {
		t.Fatalf("indexed (%v, %v) != linear (%v, %v)", dec, rule, ldec, lrule)
	}
}

// TestIndexedMatchesEqualLinearOverBenchRules is the package-local
// differential test: over a large generated rule set and a URL population
// hitting every rule shape, the compiled automaton must return exactly
// what the index-free linear scan returns: same decision, same winning
// rule, same hit list in the same order.
func TestIndexedMatchesEqualLinearOverBenchRules(t *testing.T) {
	l := NewList("diff", benchRules(1500))
	var urls []string
	for i := 0; i < 300; i++ {
		urls = append(urls,
			fmt.Sprintf("http://vendor%04d.com/score.js", i),
			fmt.Sprintf("http://site%04d.com/ads.js", i),
			fmt.Sprintf("http://benign%04d.com/ads.js", i),
			fmt.Sprintf("http://cdn.net/detect%04d-v2.js", i),
			fmt.Sprintf("http://other%04d.net/app.js", i),
		)
	}
	pages := []string{"page.com", "site0004.com", "site0123.com"}
	types := []RequestType{TypeScript, TypeImage, TypeOther}
	for _, u := range urls {
		for _, p := range pages {
			for _, typ := range types {
				q := Request{URL: u, Type: typ, PageDomain: p}
				assertMatchesOracle(t, "bench", l, l, q)
			}
		}
	}
}
