package abp

import (
	"fmt"
	"testing"
)

func buildList(t *testing.T, name string, lines ...string) *List {
	t.Helper()
	var rules []*Rule
	for _, l := range lines {
		rules = append(rules, mustParse(t, l))
	}
	return NewList(name, rules)
}

func TestListExceptionOverridesBlock(t *testing.T) {
	// The numerama.com example of Code 7 in the paper: /ads.js? blocks the
	// bait everywhere, the exception allows it on numerama.com.
	l := buildList(t, "test", "/ads.js?", "@@||numerama.com/ads.js")
	d, r := l.MatchRequest(req("http://numerama.com/ads.js?v=1", "numerama.com", TypeScript))
	if d != Allowed {
		t.Fatalf("decision = %v, want allowed", d)
	}
	if r == nil || !r.IsException() {
		t.Fatalf("deciding rule = %v, want the exception", r)
	}
	d, _ = l.MatchRequest(req("http://other.com/ads.js?v=1", "other.com", TypeScript))
	if d != Blocked {
		t.Fatalf("decision = %v, want blocked elsewhere", d)
	}
}

func TestListNoMatch(t *testing.T) {
	l := buildList(t, "test", "||pagefair.com^$third-party")
	d, r := l.MatchRequest(req("http://benign.com/app.js", "benign.com", TypeScript))
	if d != NoMatch || r != nil {
		t.Fatalf("got %v/%v, want no-match/nil", d, r)
	}
}

func TestListHiddenElements(t *testing.T) {
	l := buildList(t, "test",
		"smashboards.com###noticeMain",
		"###genericbanner",
		"example.com#@##genericbanner",
	)
	elems := []*Element{
		el("div", "noticeMain"),
		el("div", "genericbanner"),
		el("div", "content"),
	}
	hidden := l.HiddenElements("smashboards.com", elems)
	if len(hidden) != 2 {
		t.Fatalf("hidden = %v, want elements 0 and 1", hidden)
	}
	if _, ok := hidden[0]; !ok {
		t.Error("noticeMain should be hidden on smashboards.com")
	}
	// On example.com the exception rule unhides the generic banner.
	hidden = l.HiddenElements("example.com", elems)
	if _, ok := hidden[1]; ok {
		t.Error("exception rule should unhide genericbanner on example.com")
	}
	// noticeMain rule is domain-scoped, inert elsewhere.
	if _, ok := hidden[0]; ok {
		t.Error("domain-scoped rule must not fire on example.com")
	}
}

func TestListCountByClass(t *testing.T) {
	l := buildList(t, "test",
		"||a.com^",
		"||b.com^$domain=c.com",
		"/x.js$domain=d.com",
		"/y.js",
		"e.com###z",
		"###w",
	)
	got := l.CountByClass()
	want := map[Class]int{
		ClassHTTPAnchor: 1, ClassHTTPAnchorTag: 1, ClassHTTPTag: 1,
		ClassHTTPPlain: 1, ClassHTMLWithDomain: 1, ClassHTMLNoDomain: 1,
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("class %v: got %d, want %d", c, got[c], n)
		}
	}
}

func TestListDomains(t *testing.T) {
	l := buildList(t, "test",
		"||pagefair.com^$third-party",
		"smashboards.com###noticeMain",
		"/generic.js",
	)
	got := l.Domains()
	want := []string{"pagefair.com", "smashboards.com"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Domains() = %v, want %v", got, want)
	}
}

func TestRulesForDomain(t *testing.T) {
	l := buildList(t, "test",
		"yocast.tv###notice",
		"||yocast.tv/ads.js",
		"||pagefair.com^$third-party",
		"||pagefair.com/static/d.min.js$domain=majorleaguegaming.com",
	)
	got := l.RulesForDomain("yocast.tv")
	if len(got) != 2 {
		t.Fatalf("yocast.tv rules = %v", got)
	}
	// The anchor+tag rule targets both pagefair.com and the tagged site.
	if got := l.RulesForDomain("majorleaguegaming.com"); len(got) != 1 {
		t.Fatalf("mlg rules = %v", got)
	}
	if got := l.RulesForDomain("pagefair.com"); len(got) != 2 {
		t.Fatalf("pagefair rules = %v", got)
	}
	if got := l.RulesForDomain("absent.com"); len(got) != 0 {
		t.Fatalf("absent rules = %v", got)
	}
}

func TestExceptionDomainSplit(t *testing.T) {
	l := buildList(t, "test",
		"@@||numerama.com/ads.js",
		"@@||allowed.com^$script",
		"||blocked.com^",
	)
	exc, non := l.ExceptionDomainSplit()
	if len(exc) != 2 || len(non) != 1 {
		t.Fatalf("split = %v / %v", exc, non)
	}
}

func TestAppendHits(t *testing.T) {
	l := buildList(t, "test", "/ads.js?", "||numerama.com^", "###x")
	hits := l.AppendHits(nil, req("http://numerama.com/ads.js?1", "numerama.com", TypeScript))
	if len(hits) != 2 || hits[0].Ord != 0 || hits[1].Ord != 1 {
		t.Fatalf("hits = %v, want the two HTTP rules in insertion order", hits)
	}
}

func TestParseAndBuild(t *testing.T) {
	body := "! Anti-Adblock Killer\n||pagefair.com^$third-party\nyocast.tv###notice\nbroken###\n"
	l, errs := ParseAndBuild("aak", body)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want one (the broken selector)", errs)
	}
}

func TestKeywordIndexAgreesWithLinearScan(t *testing.T) {
	lines := []string{
		"||pagefair.com^$third-party",
		"||blockadblock.com^",
		"/advertising.js",
		"/ads.js?",
		"||npttech.com/advertising.js",
		"@@||numerama.com/ads.js",
		"/detector*.js$script",
	}
	l := buildList(t, "test", lines...)
	urls := []string{
		"http://www.npttech.com/advertising.js",
		"http://pagefair.com/score",
		"http://numerama.com/ads.js?x",
		"http://benign.com/app.js",
		"http://x.com/detector-v9.js",
	}
	for _, u := range urls {
		q := req(u, "page.com", TypeScript)
		decision, _ := l.MatchRequest(q)
		// Linear reference: exceptions first, then blocks.
		var want Decision
		for _, line := range lines {
			r := mustParse(t, line)
			if r.IsException() && r.MatchRequest(q) {
				want = Allowed
				break
			}
		}
		if want == NoMatch {
			for _, line := range lines {
				r := mustParse(t, line)
				if !r.IsException() && r.MatchRequest(q) {
					want = Blocked
					break
				}
			}
		}
		if decision != want {
			t.Errorf("url %q: index says %v, linear scan says %v", u, decision, want)
		}
	}
}

func TestElemHideException(t *testing.T) {
	l := buildList(t, "test",
		"###genericbanner",
		"video.example###notice",
		"@@||video.example^$elemhide",
	)
	elems := []*Element{el("div", "genericbanner"), el("div", "notice")}
	// $elemhide disables every hiding rule on the excepted domain.
	if hidden := l.HiddenElements("video.example", elems); len(hidden) != 0 {
		t.Fatalf("elemhide exception ignored: %v", hidden)
	}
	// Other domains are unaffected.
	if hidden := l.HiddenElements("other.example", elems); len(hidden) != 1 {
		t.Fatalf("generic rule should fire elsewhere: %v", hidden)
	}
}

func TestGenericHideException(t *testing.T) {
	l := buildList(t, "test",
		"###genericbanner",
		"news.example###notice",
		"@@||news.example^$generichide",
	)
	elems := []*Element{el("div", "genericbanner"), el("div", "notice")}
	hidden := l.HiddenElements("news.example", elems)
	if _, ok := hidden[0]; ok {
		t.Error("$generichide must disable the domain-less rule")
	}
	if _, ok := hidden[1]; !ok {
		t.Error("$generichide must keep domain-specific rules active")
	}
}

func TestElemHideDisabledLookup(t *testing.T) {
	l := buildList(t, "test", "@@||a.example^$elemhide", "@@||b.example^$generichide")
	all, generic := l.ElemHideDisabled("a.example")
	if !all || generic {
		t.Fatalf("a.example: all=%v generic=%v", all, generic)
	}
	all, generic = l.ElemHideDisabled("b.example")
	if all || !generic {
		t.Fatalf("b.example: all=%v generic=%v", all, generic)
	}
	all, generic = l.ElemHideDisabled("c.example")
	if all || generic {
		t.Fatalf("c.example should be unaffected")
	}
}
