package abp

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func req(url, page string, typ RequestType) Request {
	return Request{URL: url, PageDomain: page, Type: typ}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://example.com/a":             "example.com",
		"https://Sub.Example.COM:8080/x":   "sub.example.com",
		"//cdn.example.com/lib.js":         "cdn.example.com",
		"http://user:pw@example.com/p?q=1": "example.com",
		"not-a-url":                        "",
		"http://example.com?x=1":           "example.com",
		"http://example.com#frag":          "example.com",
		// IPv6 literals: the bracketed host must survive intact instead of
		// being truncated at its first ':'.
		"http://[::1]:8080/x":               "::1",
		"http://[2001:db8::1]/p":            "2001:db8::1",
		"https://[2001:DB8::a]:443/q?x=1":   "2001:db8::a",
		"http://u:p@[2001:db8::1]:8443/y":   "2001:db8::1",
		"//[fe80::1]/asset.js":              "fe80::1",
		"http://[broken":                    "",
		"http://user:pw@example.com:8080/p": "example.com",
		// '@' outside the authority: the credential cut is bounded to
		// before the first '/', '?', or '#', so an '@' in the path, query,
		// or fragment must never shift the host.
		"http://host.com/pa@th":            "host.com",
		"http://host.com/p?a@b":            "host.com",
		"http://host.com#f@g":              "host.com",
		"http://host.com/pa@th?a@b#c@d":    "host.com",
		"http://host.com?redir=x@y.com":    "host.com",
		"http://u@host.com/p@q":            "host.com",
		"http://a@b@host.com/":             "host.com",
		"//user:pw@cdn.example.com/lib.js": "cdn.example.com",
	}
	for in, want := range cases {
		if got := HostOf(in); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDomainAnchorMatching(t *testing.T) {
	r := mustParse(t, "||example1.com")
	if !r.MatchRequest(req("http://example1.com/ads.js", "pub.com", TypeScript)) {
		t.Error("want match on exact host")
	}
	if !r.MatchRequest(req("http://cdn.example1.com/x.png", "pub.com", TypeImage)) {
		t.Error("want match on subdomain")
	}
	if r.MatchRequest(req("http://notexample1.com/x", "pub.com", TypeScript)) {
		t.Error("must not match host suffix without domain boundary")
	}
	if r.MatchRequest(req("http://evil.com/example1.com/x", "pub.com", TypeScript)) {
		t.Error("must not match path occurrence")
	}
}

func TestDomainAnchorUserinfo(t *testing.T) {
	// "||" anchors to the host, which begins after the authority's last
	// '@'. Without bounding the credential cut to the authority, a rule
	// both misses its real host behind userinfo and false-matches a URL
	// whose userinfo impersonates the anchored domain.
	r := mustParse(t, "||victim.com^")
	if !r.MatchRequest(req("http://user@victim.com/x", "pub.com", TypeScript)) {
		t.Error("'||' must match the real host behind userinfo")
	}
	if !r.MatchRequest(req("http://user:pw@victim.com:8080/x", "pub.com", TypeScript)) {
		t.Error("'||' must match behind userinfo with password and port")
	}
	if !r.MatchRequest(req("http://u@sub.victim.com/x", "pub.com", TypeScript)) {
		t.Error("'||' must match a subdomain behind userinfo")
	}
	if r.MatchRequest(req("http://victim.com@evil.com/x", "pub.com", TypeScript)) {
		t.Error("'||' must not match userinfo impersonating the domain")
	}
	if r.MatchRequest(req("http://u@evil.com/victim.com/x", "pub.com", TypeScript)) {
		t.Error("'||' must not match a path occurrence behind userinfo")
	}
	// An '@' after the authority is path data, not a credential cut.
	if !r.MatchRequest(req("http://victim.com/pa@th?a@b", "pub.com", TypeScript)) {
		t.Error("'||' must ignore '@' in path and query")
	}
	if r.MatchRequest(req("http://evil.com/x?to=victim.com@z", "pub.com", TypeScript)) {
		t.Error("'||' must not anchor at an '@' inside the query")
	}
}

func TestSeparatorMatching(t *testing.T) {
	r := mustParse(t, "||pagefair.com^$third-party")
	if !r.MatchRequest(req("http://pagefair.com/score.js", "news.com", TypeScript)) {
		t.Error("'^' should match '/'")
	}
	if !r.MatchRequest(req("http://pagefair.com", "news.com", TypeScript)) {
		t.Error("'^' should match end of URL")
	}
	if r.MatchRequest(req("http://pagefair.community/x", "news.com", TypeScript)) {
		t.Error("'^' must not match letters")
	}
	if r.MatchRequest(req("http://pagefair.com/score.js", "pagefair.com", TypeScript)) {
		t.Error("$third-party must not match first-party request")
	}
}

func TestWildcardMatching(t *testing.T) {
	r := mustParse(t, "/advert*.js")
	if !r.MatchRequest(req("http://x.com/advertisement-v2.js", "x.com", TypeScript)) {
		t.Error("wildcard should bridge arbitrary text")
	}
	if !r.MatchRequest(req("http://x.com/advert.js", "x.com", TypeScript)) {
		t.Error("wildcard should match empty")
	}
	if r.MatchRequest(req("http://x.com/advert.css", "x.com", TypeStylesheet)) {
		t.Error("suffix must still match")
	}
}

func TestStartEndAnchors(t *testing.T) {
	r := mustParse(t, "|http://ads.example.com/a.js|")
	if !r.MatchRequest(req("http://ads.example.com/a.js", "p.com", TypeScript)) {
		t.Error("exact URL should match")
	}
	if r.MatchRequest(req("http://ads.example.com/a.js?x=1", "p.com", TypeScript)) {
		t.Error("end anchor must reject longer URL")
	}
	if r.MatchRequest(req("https://mirror.net/http://ads.example.com/a.js", "p.com", TypeScript)) {
		t.Error("start anchor must reject embedded URL")
	}
}

func TestTypeOptions(t *testing.T) {
	r := mustParse(t, "||example1.com$script")
	if !r.MatchRequest(req("http://example1.com/a.js", "p.com", TypeScript)) {
		t.Error("script request should match")
	}
	if r.MatchRequest(req("http://example1.com/a.png", "p.com", TypeImage)) {
		t.Error("image request must not match a $script rule")
	}
	neg := mustParse(t, "||example1.com$~script")
	if neg.MatchRequest(req("http://example1.com/a.js", "p.com", TypeScript)) {
		t.Error("$~script must reject script requests")
	}
	if !neg.MatchRequest(req("http://example1.com/a.png", "p.com", TypeImage)) {
		t.Error("$~script should allow image requests")
	}
}

// sliceTypeOptions is the option-name → request-type table the matcher had
// when a rule kept its content types as two slices; with sliceTypesAdmit it
// is the oracle TestTypeOptionTable holds the masks to.
var sliceTypeOptions = map[string]RequestType{
	"script": TypeScript, "image": TypeImage, "stylesheet": TypeStylesheet,
	"object": TypeObject, "xmlhttprequest": TypeXHR,
	"subdocument": TypeSubdocument, "document": TypeDocument,
	"popup": TypePopup, "other": TypeOther, "media": TypeOther,
	"font": TypeOther, "websocket": TypeOther, "ping": TypeOther,
	"object-subrequest": TypeObject,
}

// sliceTypesAdmit is the slice form's type check: the options are filed
// positive or negated, and a request's type (empty meaning other) is
// admitted when the positive list is empty or holds it and the negated one
// does not.
func sliceTypesAdmit(opts []string, typ RequestType) bool {
	var types, notTypes []RequestType
	for _, opt := range opts {
		if name, neg := strings.CutPrefix(opt, "~"); neg {
			notTypes = append(notTypes, sliceTypeOptions[name])
		} else {
			types = append(types, sliceTypeOptions[opt])
		}
	}
	if typ == "" {
		typ = TypeOther
	}
	return !(len(types) > 0 && !slices.Contains(types, typ) || slices.Contains(notTypes, typ))
}

// TestTypeOptionTable pins content-type option semantics: every request
// type, the empty type and one no rule can name, against no option, $t,
// $~t, $t1,t2, $~t1,~t2 and $t,~t over every type option, those that fold
// onto another type (media, font, websocket, ping → other,
// object-subrequest → object) included — the rule alone, and in a list
// through the automaton and the linear scan.
func TestTypeOptionTable(t *testing.T) {
	var names []string
	for name := range sliceTypeOptions {
		names = append(names, name)
	}
	slices.Sort(names)
	optSets := [][]string{nil}
	for i, a := range names {
		optSets = append(optSets, []string{a}, []string{"~" + a}, []string{a, "~" + a})
		for _, b := range names[i+1:] {
			optSets = append(optSets, []string{a, b}, []string{"~" + a, "~" + b})
		}
	}
	types := []RequestType{
		TypeScript, TypeImage, TypeStylesheet, TypeObject, TypeXHR,
		TypeSubdocument, TypeDocument, TypePopup, TypeOther, "", "font",
	}
	for _, opts := range optSets {
		line := "||x.example^"
		if opts != nil {
			line += "$" + strings.Join(opts, ",")
		}
		r := mustParse(t, line)
		l := NewList("types", []*Rule{r})
		for _, typ := range types {
			q := req("http://x.example/a", "p.example", typ)
			want := sliceTypesAdmit(opts, typ)
			wantDecision := NoMatch
			if want {
				wantDecision = Blocked
			}
			d, _ := l.MatchRequest(q)
			dl, _ := l.MatchRequestLinear(q)
			if got := r.MatchRequest(q); got != want || d != wantDecision || dl != wantDecision {
				t.Errorf("%s on type %q: rule %v, list %v, linear %v; want %v", line, typ, got, d, dl, want)
			}
		}
	}
}

func TestDomainOption(t *testing.T) {
	// Rule 4 of Code 1: /example.js$script,domain=example2.com
	r := mustParse(t, "/example.js$script,domain=example2.com")
	if !r.MatchRequest(req("http://cdn.net/example.js", "example2.com", TypeScript)) {
		t.Error("should match on example2.com pages")
	}
	if !r.MatchRequest(req("http://cdn.net/example.js", "sub.example2.com", TypeScript)) {
		t.Error("should match on subdomain pages")
	}
	if r.MatchRequest(req("http://cdn.net/example.js", "other.com", TypeScript)) {
		t.Error("must not match on other pages")
	}
}

func TestNegatedDomainOption(t *testing.T) {
	r := mustParse(t, "/b.js$domain=a.com|~sub.a.com")
	if !r.MatchRequest(req("http://c.net/b.js", "a.com", TypeScript)) {
		t.Error("should match on a.com")
	}
	if r.MatchRequest(req("http://c.net/b.js", "sub.a.com", TypeScript)) {
		t.Error("must not match on negated subdomain")
	}
}

func TestCaseInsensitiveByDefault(t *testing.T) {
	r := mustParse(t, "/ADS.JS")
	if !r.MatchRequest(req("http://x.com/ads.js", "x.com", TypeScript)) {
		t.Error("matching should be case-insensitive by default")
	}
	mc := mustParse(t, "/ADS.JS$match-case")
	if mc.MatchRequest(req("http://x.com/ads.js", "x.com", TypeScript)) {
		t.Error("$match-case must respect case")
	}
}

func TestExceptionRuleMatchesSameURLs(t *testing.T) {
	// Rule 2 of Code 7: @@||numerama.com/ads.js
	blk := mustParse(t, "/ads.js?")
	exc := mustParse(t, "@@||numerama.com/ads.js")
	u := "http://numerama.com/ads.js?v=2"
	if !blk.MatchRequest(req(u, "numerama.com", TypeScript)) {
		t.Error("blocking rule should match the bait URL")
	}
	if !exc.MatchRequest(req(u, "numerama.com", TypeScript)) {
		t.Error("exception rule should match the bait URL")
	}
}

func TestElemHideRuleNeverMatchesRequests(t *testing.T) {
	r := mustParse(t, "example.com###banner")
	if r.MatchRequest(req("http://example.com/banner", "example.com", TypeOther)) {
		t.Error("element hiding rules must not match HTTP requests")
	}
}

func TestMatchHereProperties(t *testing.T) {
	// Property: a pattern consisting only of literal characters matches a
	// string exactly when it is a substring (unanchored semantics).
	f := func(pat, pad1, pad2 string) bool {
		clean := func(s string) string {
			s = strings.Map(func(r rune) rune {
				if r == '*' || r == '^' || r == '|' || r == '$' {
					return 'x'
				}
				if r < ' ' || r > '~' {
					return 'y'
				}
				return r
			}, s)
			return strings.ToLower(s)
		}
		p := clean(pat)
		if p == "" {
			return true
		}
		s := clean(pad1) + p + clean(pad2)
		return globMatch(p, s, false, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeparatorProperty(t *testing.T) {
	// Property: isSeparator never accepts letters, digits, or _-.%
	f := func(c byte) bool {
		isAlnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		special := c == '_' || c == '-' || c == '.' || c == '%'
		if isAlnum || special {
			return !isSeparator(c)
		}
		return isSeparator(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThirdPartyComputation(t *testing.T) {
	q := req("http://cdn.pagefair.com/x.js", "news.com", TypeScript)
	if !q.IsThirdParty() {
		t.Error("cross-domain request should be third-party")
	}
	q = req("http://static.news.com/x.js", "news.com", TypeScript)
	if q.IsThirdParty() {
		t.Error("subdomain request should be first-party")
	}
}

// TestDomainOptionsIgnoreCase: hosts and page domains reach the matcher in
// whatever case the caller has; $third-party, $domain= and element-hiding
// domain scopes compare them case-insensitively, and only at label
// boundaries.
func TestDomainOptionsIgnoreCase(t *testing.T) {
	domainRule := mustParse(t, "/ads.js$domain=News.COM|~Sports.news.com")
	thirdRule := mustParse(t, "||cdn.tracker.com^$third-party")
	hideRule := mustParse(t, "News.com,~Sports.News.com###banner")
	cases := []struct {
		page                string
		domain, third, hide bool
	}{
		{"news.com", true, true, true},
		{"NEWS.com", true, true, true},
		{"Blog.News.Com", true, true, true},
		{"sports.NEWS.com", false, true, false},
		{"a.Sports.news.com", false, true, false},
		{"fakenews.com", false, true, false}, // suffix, not a label boundary
		{"com", false, false, false},         // a suffix of everything under it
		{"Tracker.COM", false, false, false}, // the tracker's own page: first party
		{"", false, false, false},
	}
	for _, c := range cases {
		q := Request{URL: "http://CDN.Tracker.com/ads.js", Type: TypeScript, PageDomain: c.page}
		if got := domainRule.MatchRequest(q); got != c.domain {
			t.Errorf("page %q: $domain= rule matched = %v, want %v", c.page, got, c.domain)
		}
		if got := thirdRule.MatchRequest(q); got != c.third {
			t.Errorf("page %q: $third-party rule matched = %v, want %v", c.page, got, c.third)
		}
		if got := q.IsThirdParty(); got != c.third {
			t.Errorf("page %q: IsThirdParty = %v, want %v", c.page, got, c.third)
		}
		if got := hideRule.appliesOn(lowerDomain(c.page)); got != c.hide {
			t.Errorf("page %q: hiding rule applies = %v, want %v", c.page, got, c.hide)
		}
	}
}
