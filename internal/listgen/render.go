package listgen

import (
	"fmt"
	"strings"

	"adwars/internal/abp"
)

// RenderList serializes a list revision in the standard Adblock Plus
// filter list text format, with the header block real lists carry. The
// output parses back through abp.ParseList (round-trip tested), so the
// generated lists can be consumed by any ABP-compatible engine.
func RenderList(name string, rev abp.Revision) string {
	var b strings.Builder
	b.WriteString("[Adblock Plus 2.0]\n")
	fmt.Fprintf(&b, "! Title: %s\n", name)
	fmt.Fprintf(&b, "! Version: %s\n", rev.Time.Format("200601021504"))
	fmt.Fprintf(&b, "! Last modified: %s\n", rev.Time.Format("02 Jan 2006 15:04 MST"))
	b.WriteString("! Expires: 4 days (update frequency)\n")
	b.WriteString("! Homepage: https://github.com/example/anti-adblock-killer\n")
	b.WriteString("!\n")

	// Group rules by kind with section comments, like the curated lists.
	sections := []struct {
		title string
		keep  func(*abp.Rule) bool
	}{
		{"General element hiding rules", func(r *abp.Rule) bool {
			return r.Kind == abp.KindElemHide && !r.HasDomainTag()
		}},
		{"Site-specific element hiding rules", func(r *abp.Rule) bool {
			return r.Kind == abp.KindElemHide && r.HasDomainTag()
		}},
		{"Blocking rules", func(r *abp.Rule) bool {
			return r.Kind == abp.KindHTTPBlock
		}},
		{"Exception rules", func(r *abp.Rule) bool {
			return r.Kind == abp.KindHTTPException || r.Kind == abp.KindElemHideException
		}},
	}
	for _, s := range sections {
		var lines []string
		for _, r := range rev.Rules {
			if s.keep(r) {
				lines = append(lines, r.Raw)
			}
		}
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "! *** %s ***\n", s.title)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RenderLatest serializes the most recent revision of a history, or ""
// for empty histories.
func RenderLatest(h *abp.History) string {
	rev, ok := h.Latest()
	if !ok {
		return ""
	}
	return RenderList(h.Name, rev)
}

// adBlockingRules is the general ad-blocking list standing in for
// EasyList's main sections: it blocks the bait request paths and hides the
// ad-like bait element classes anti-adblockers plant (§3.1). These are the
// rules whose effect the detectors observe.
var adBlockingRules = []string{
	"/ads.js?",
	"/ads.js|",
	"/advertising.js",
	"/adsbygoogle.js",
	"/js/ads.js",
	"/assets/ad-loader.js",
	"/static/showads.js",
	"/banner/ads.js",
	"##.ad-banner",
	"##.pub_300x250",
	"##.textads",
	"##.ad-placement",
	"##.adsbox",
	"##.banner_ad",
	"##.sponsor-box",
	"##.ad-unit",
	"##.adzone",
	"##.square-ad",
}

// AdBlockingList compiles the stand-in for EasyList's general ad-blocking
// sections, used by the circumvention simulation (browser.SimulateVisit).
func AdBlockingList() *abp.List {
	list, errs := abp.ParseAndBuild("EasyList (ads)", strings.Join(adBlockingRules, "\n"))
	if len(errs) != 0 {
		panic(fmt.Sprintf("listgen: ad rules must parse: %v", errs[0]))
	}
	return list
}
