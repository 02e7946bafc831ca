// Package browser is the page side of the paper's Firefox + Adblock Plus
// replay: it adapts a page's DOM, archived HTML or live, to the filter
// engine's element views for element hiding, and simulates what an adblock
// user meets on a site (SimulateVisit). HTTP rules match a page's requests
// directly, through abp.List.MatchRequest, with the type and page domain
// the crawl recorded for each.
package browser

import (
	"adwars/internal/abp"
	"adwars/internal/web"
)

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
