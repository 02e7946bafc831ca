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
// element views, in document order. The retrospective replay feeds it each
// archived snapshot's HTML; a live page holds its DOM already and goes
// through PageViews instead.
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
