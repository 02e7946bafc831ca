package abp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func mustParse(t *testing.T, line string) *Rule {
	t.Helper()
	r, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	return r
}

func TestParseHTTPBlockPlain(t *testing.T) {
	r := mustParse(t, "/ads.js?")
	if r.Kind != KindHTTPBlock {
		t.Fatalf("kind = %v, want http-block", r.Kind)
	}
	if r.Pattern != "/ads.js?" || r.DomainAnchor || r.StartAnchor || r.EndAnchor {
		t.Fatalf("unexpected parse: %+v", r)
	}
	if got := r.Class(); got != ClassHTTPPlain {
		t.Fatalf("class = %v, want %v", got, ClassHTTPPlain)
	}
}

func TestParseDomainAnchor(t *testing.T) {
	r := mustParse(t, "||example1.com")
	if !r.DomainAnchor || r.Pattern != "example1.com" {
		t.Fatalf("unexpected parse: %+v", r)
	}
	if got := r.Class(); got != ClassHTTPAnchor {
		t.Fatalf("class = %v, want %v", got, ClassHTTPAnchor)
	}
}

func TestParseDomainAnchorWithScriptOption(t *testing.T) {
	r := mustParse(t, "||example1.com$script")
	if r.types != TypeScript.typeBit() || r.notTypes != 0 {
		t.Fatalf("types = %#x, not %#x, want script only", r.types, r.notTypes)
	}
	if got := r.Class(); got != ClassHTTPAnchor {
		t.Fatalf("class = %v, want %v", got, ClassHTTPAnchor)
	}
}

func TestParseAnchorAndTag(t *testing.T) {
	// Rule 3 of Code 1 in the paper.
	r := mustParse(t, "||example1.com$script,domain=example2.com")
	if !r.DomainAnchor {
		t.Fatal("want domain anchor")
	}
	if d := r.Domains(); len(d) != 1 || d[0] != "example2.com" {
		t.Fatalf("domains = %v", d)
	}
	if got := r.Class(); got != ClassHTTPAnchorTag {
		t.Fatalf("class = %v, want %v", got, ClassHTTPAnchorTag)
	}
}

func TestParseTagOnly(t *testing.T) {
	// Rule 4 of Code 1 in the paper.
	r := mustParse(t, "/example.js$script,domain=example2.com")
	if r.DomainAnchor {
		t.Fatal("unexpected domain anchor")
	}
	if got := r.Class(); got != ClassHTTPTag {
		t.Fatalf("class = %v, want %v", got, ClassHTTPTag)
	}
}

func TestParseThirdParty(t *testing.T) {
	// Rule 1 of Code 6 in the paper.
	r := mustParse(t, "||pagefair.com^$third-party")
	if r.ThirdParty != 1 {
		t.Fatalf("third-party = %d, want 1", r.ThirdParty)
	}
	if !r.DomainAnchor || r.Pattern != "pagefair.com^" {
		t.Fatalf("unexpected parse: %+v", r)
	}
}

func TestParseNegatedThirdParty(t *testing.T) {
	r := mustParse(t, "||ads.example.com^$~third-party")
	if r.ThirdParty != -1 {
		t.Fatalf("third-party = %d, want -1", r.ThirdParty)
	}
}

func TestParseHTTPException(t *testing.T) {
	// Rule 1 of Code 3 in the paper.
	r := mustParse(t, "@@||example.com$script")
	if r.Kind != KindHTTPException {
		t.Fatalf("kind = %v, want http-exception", r.Kind)
	}
	if !r.IsException() {
		t.Fatal("IsException() = false")
	}
}

func TestParseElemHideWithDomain(t *testing.T) {
	// Rule 2 of Code 6 in the paper.
	r := mustParse(t, "smashboards.com###noticeMain")
	if r.Kind != KindElemHide {
		t.Fatalf("kind = %v", r.Kind)
	}
	if d := r.Domains(); len(d) != 1 || d[0] != "smashboards.com" {
		t.Fatalf("domains = %v", d)
	}
	if r.Pattern != "#noticeMain" {
		t.Fatalf("selector = %q", r.Pattern)
	}
	if got := r.Class(); got != ClassHTMLWithDomain {
		t.Fatalf("class = %v, want %v", got, ClassHTMLWithDomain)
	}
}

func TestParseElemHideClassSelector(t *testing.T) {
	// Rule 2 of Code 2 in the paper.
	r := mustParse(t, "example.com##.examplebanner")
	if r.Pattern != ".examplebanner" {
		t.Fatalf("selector = %q", r.Pattern)
	}
}

func TestParseElemHideGeneric(t *testing.T) {
	// Rule 3 of Code 2 in the paper.
	r := mustParse(t, "###examplebanner")
	if d := r.Domains(); len(d) != 0 {
		t.Fatalf("domains = %v, want none", d)
	}
	if got := r.Class(); got != ClassHTMLNoDomain {
		t.Fatalf("class = %v, want %v", got, ClassHTMLNoDomain)
	}
}

func TestParseElemHideException(t *testing.T) {
	r := mustParse(t, "example.com#@##elementbanner")
	if r.Kind != KindElemHideException {
		t.Fatalf("kind = %v", r.Kind)
	}
	if r.Pattern != "#elementbanner" {
		t.Fatalf("selector = %q", r.Pattern)
	}
}

func TestParseCommentAndBlank(t *testing.T) {
	if _, err := Parse("! a comment"); !errors.Is(err, ErrCommentLine) {
		t.Fatalf("comment err = %v", err)
	}
	if _, err := Parse("[Adblock Plus 2.0]"); !errors.Is(err, ErrCommentLine) {
		t.Fatalf("header err = %v", err)
	}
	if _, err := Parse("   "); !errors.Is(err, ErrEmptyLine) {
		t.Fatalf("blank err = %v", err)
	}
}

func TestParseNegatedDomains(t *testing.T) {
	r := mustParse(t, "/banner.js$domain=a.com|~sub.a.com|b.com")
	if len(r.Domains()) != 2 || len(r.NotDomains()) != 1 {
		t.Fatalf("domains=%v notdomains=%v", r.Domains(), r.NotDomains())
	}
}

func TestParseBadOption(t *testing.T) {
	if _, err := Parse("||example.com$bogusoption"); err != nil {
		// "$bogusoption" does not look like an option list, so it is
		// treated as part of the pattern — ABP-compatible behaviour.
		t.Fatalf("unexpected error: %v", err)
	}
	r := mustParse(t, "||example.com$bogusoption")
	if r.Pattern != "example.com$bogusoption" {
		t.Fatalf("pattern = %q", r.Pattern)
	}
}

func TestParseEndAnchor(t *testing.T) {
	r := mustParse(t, "|http://example.com/ads.js|")
	if !r.StartAnchor || !r.EndAnchor {
		t.Fatalf("anchors: start=%v end=%v", r.StartAnchor, r.EndAnchor)
	}
	if r.Pattern != "http://example.com/ads.js" {
		t.Fatalf("pattern = %q", r.Pattern)
	}
}

func TestParseListSkipsComments(t *testing.T) {
	body := "! header\n||a.com^\n\nexample.com###x\n[Adblock]\n@@||b.com^$script\n"
	rules, errs := ParseList(body)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if len(rules) != 3 {
		t.Fatalf("len(rules) = %d, want 3", len(rules))
	}
}

func TestTargetDomains(t *testing.T) {
	r := mustParse(t, "||pagefair.com/static/adblock_detection/js/d.min.js$domain=majorleaguegaming.com")
	got := r.TargetDomains()
	want := []string{"majorleaguegaming.com", "pagefair.com"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("TargetDomains = %v, want %v", got, want)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	lines := []string{
		"||example1.com$script,domain=example2.com",
		"smashboards.com###noticeMain",
		"@@||numerama.com/ads.js",
	}
	for _, l := range lines {
		if got := mustParse(t, l).String(); got != l {
			t.Errorf("String() = %q, want %q", got, l)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindComment: "comment", KindHTTPBlock: "http-block",
		KindHTTPException: "http-exception", KindElemHide: "elemhide",
		KindElemHideException: "elemhide-exception", KindInvalid: "invalid",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestParseNegatedFlags: a negated flag option does not take the flag's
// meaning. As in Adblock Plus, ~match-case leaves the rule case-insensitive,
// ~elemhide and ~generichide are inverted types that turn no hiding off,
// and ~domain= is refused.
func TestParseNegatedFlags(t *testing.T) {
	r := mustParse(t, "/BannerAd.gif$~match-case")
	if r.MatchCase {
		t.Error("$~match-case set MatchCase")
	}
	if !r.MatchRequest(req("http://x.com/bannerad.gif", "x.com", TypeImage)) {
		t.Error("$~match-case rule does not block a differently cased URL")
	}
	for _, line := range []string{"@@||a.com^$~elemhide", "@@||a.com^$~generichide"} {
		r := mustParse(t, line)
		if r.DisableElemHide || r.DisableGenericHide {
			t.Errorf("%s: DisableElemHide %v, DisableGenericHide %v", line, r.DisableElemHide, r.DisableGenericHide)
		}
		all, generic := NewHiding(NewList("l", []*Rule{r})).ElemHideDisabled("a.com")
		if all || generic {
			t.Errorf("%s turns hiding off on a.com: all %v, generic %v", line, all, generic)
		}
	}
	if _, err := Parse("||a.com^$~domain=b.com"); !errors.Is(err, ErrBadOption) {
		t.Errorf("$~domain= parses: error %v, want ErrBadOption", err)
	}
}

// TestParseListBytesPerLine is the memory budget of a parsed list: what
// ParseList allocates per option-free line, the rule and the pointer to it.
func TestParseListBytesPerLine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if size := unsafe.Sizeof(Rule{}); size > 80 {
		t.Errorf("a Rule is %d bytes, budget 80", size)
	}
	const n = 50_000
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "||ads%05d.example^\n", i)
	}
	body := b.String()
	var fewest uint64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rules, _ := ParseList(body)
		runtime.ReadMemStats(&after)
		if len(rules) != n {
			t.Fatalf("%d rules, want %d", len(rules), n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; run == 0 || got < fewest {
			fewest = got
		}
	}
	perLine := float64(fewest) / n
	if perLine > 96 {
		t.Errorf("ParseList allocates %.1f B per line, budget 96", perLine)
	}
	t.Logf("%.1f B per line", perLine)
}
