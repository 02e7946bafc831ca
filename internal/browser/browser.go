// Package browser replays archived or live pages through an adblocker the
// way §4.2 of the paper does with Firefox + Adblock Plus: it loads a page,
// applies a filter list to its HTTP requests (blocking) and its DOM
// (element hiding), and logs which rules triggered. The log is what the
// coverage measurement consumes.
package browser

import (
	"strings"

	"adwars/internal/abp"
	"adwars/internal/web"
)

// HTTPTrigger records one HTTP filter rule firing on one request.
type HTTPTrigger struct {
	// URL is the live (truncated) request URL that matched.
	URL string
	// Rule is the filter rule that decided the request.
	Rule *abp.Rule
	// Decision says whether the rule blocked or excepted the request.
	Decision abp.Decision
}

// MatchHTTPURLs matches a set of request URLs (already truncated to live
// URLs) against a list and returns the triggers. pageDomain scopes
// $domain= and $third-party options.
func MatchHTTPURLs(list *abp.List, urls []string, pageDomain string) []HTTPTrigger {
	var out []HTTPTrigger
	for _, u := range urls {
		q := abp.Request{URL: u, Type: guessType(u), PageDomain: pageDomain}
		if dec, rule := list.MatchRequest(q); dec != abp.NoMatch {
			out = append(out, HTTPTrigger{URL: u, Rule: rule, Decision: dec})
		}
	}
	return out
}

// DOMViews parses page HTML and adapts its elements to the filter engine's
// element views, in document order. It is the one conversion every replay
// path shares (archived snapshots, live pages, the coverage experiments).
func DOMViews(html string) []*abp.Element {
	root := web.ParseHTML(html)
	if root == nil {
		return nil
	}
	elems := root.Flatten()
	views := make([]*abp.Element, len(elems))
	for i, e := range elems {
		views[i] = e.ToABP()
	}
	return views
}

// PageViews adapts a live page's DOM to the filter engine's element views,
// in document order.
func PageViews(page *web.Page) []*abp.Element {
	elems := page.Elements()
	views := make([]*abp.Element, len(elems))
	for i, e := range elems {
		views[i] = e.ToABP()
	}
	return views
}

// guessType infers the resource type from the URL path, like an adblocker
// classifying archived requests.
func guessType(u string) abp.RequestType {
	low := strings.ToLower(u)
	if i := strings.IndexAny(low, "?#"); i >= 0 {
		low = low[:i]
	}
	switch {
	case strings.HasSuffix(low, ".js"):
		return abp.TypeScript
	case strings.HasSuffix(low, ".css"):
		return abp.TypeStylesheet
	case strings.HasSuffix(low, ".png"), strings.HasSuffix(low, ".jpg"),
		strings.HasSuffix(low, ".jpeg"), strings.HasSuffix(low, ".gif"),
		strings.HasSuffix(low, ".svg"), strings.HasSuffix(low, ".webp"):
		return abp.TypeImage
	case strings.HasSuffix(low, "/"), strings.HasSuffix(low, ".html"),
		strings.HasSuffix(low, ".htm"):
		return abp.TypeDocument
	default:
		return abp.TypeOther
	}
}
