package browser

import (
	"adwars/internal/abp"
	"adwars/internal/antiadblock"
	"adwars/internal/web"
)

// VisitOutcome is what an adblock user experiences on a site (§3.1–3.2:
// baits, detection, and the counter-moves anti-adblock filter lists make).
type VisitOutcome int

const (
	// OutcomeClean: the site runs no anti-adblocker; nothing happens.
	OutcomeClean VisitOutcome = iota
	// OutcomeCircumvented: the anti-adblock list blocked the detector
	// script itself, so detection never ran.
	OutcomeCircumvented
	// OutcomeUndetected: the detector ran but its baits were not
	// touched (e.g. the exception rules let the bait load), so the
	// adblock user passed as a normal visitor.
	OutcomeUndetected
	// OutcomeWallSuppressed: the detector fired, but the anti-adblock
	// list hides the warning element, so the user never sees the wall.
	OutcomeWallSuppressed
	// OutcomeWallShown: the detector fired and the warning reached the
	// user — the anti-adblock list failed on this site.
	OutcomeWallShown
)

// String names the outcome.
func (o VisitOutcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeCircumvented:
		return "circumvented"
	case OutcomeUndetected:
		return "undetected"
	case OutcomeWallSuppressed:
		return "wall-suppressed"
	case OutcomeWallShown:
		return "wall-shown"
	default:
		return "unknown"
	}
}

// VisitConfig is the adblock user's setup: the ad-blocking rules that make
// baits fail, plus the anti-adblock list meant to defeat detection, each
// beside its element hiding index. NewVisitConfig builds one per pair of
// list versions, to be reused for every page; the zero value has no lists.
type VisitConfig struct {
	// adRules is the general ad-blocking list (EasyList's role): it
	// blocks bait requests and, through adHiding, hides ad-like bait
	// elements — the very signals detectors watch (§3.1).
	adRules  *abp.List
	adHiding *abp.Hiding
	// antiAdblock is the anti-adblock filter list under test.
	antiAdblock       *abp.List
	antiAdblockHiding *abp.Hiding
}

// NewVisitConfig is the setup of a user running adRules and antiAdblock
// (either may be nil for none), each list's element hiding index built
// here, once.
func NewVisitConfig(adRules, antiAdblock *abp.List) VisitConfig {
	cfg := VisitConfig{adRules: adRules, antiAdblock: antiAdblock}
	if adRules != nil {
		cfg.adHiding = abp.NewHiding(adRules)
	}
	if antiAdblock != nil {
		cfg.antiAdblockHiding = abp.NewHiding(antiAdblock)
	}
	return cfg
}

// SimulateVisit walks the §3.1 detection mechanics for an adblock user
// loading a deployed page:
//
//  1. If the anti-adblock list blocks the detector script, detection
//     never runs (the "active adblocking" counter-move).
//  2. Otherwise the detector probes its baits: an HTTP bait that the ad
//     rules block (and no exception saves), or a bait element the ad
//     rules hide, triggers detection.
//  3. A triggered wall still never reaches the user if the anti-adblock
//     list hides the warning element (the AWRL counter-move).
func SimulateVisit(cfg VisitConfig, page *web.Page, dep *antiadblock.Deployment) VisitOutcome {
	if dep == nil {
		return OutcomeClean
	}

	// Step 1: is the detector script itself neutralized?
	scriptReq := abp.Request{URL: dep.ScriptURL, Type: abp.TypeScript, PageDomain: page.Domain}
	if cfg.antiAdblock != nil {
		if d, _ := cfg.antiAdblock.MatchRequest(scriptReq); d == abp.Blocked {
			return OutcomeCircumvented
		}
	}

	// Step 2: do the baits betray the adblocker?
	detected := false
	if dep.Vendor.Technique.UsesHTTP() {
		baitReq := abp.Request{URL: dep.BaitURL(), Type: abp.TypeScript, PageDomain: page.Domain}
		blocked := false
		if cfg.adRules != nil {
			if d, _ := cfg.adRules.MatchRequest(baitReq); d == abp.Blocked {
				blocked = true
			}
		}
		// The anti-adblock list's exception rules can let the bait
		// through even though the ad rules would block it (the
		// numerama.com pattern, Code 7).
		if blocked && cfg.antiAdblock != nil {
			if d, _ := cfg.antiAdblock.MatchRequest(baitReq); d == abp.Allowed {
				blocked = false
			}
		}
		if blocked {
			detected = true
		}
	}
	if !detected && dep.Vendor.Technique.UsesHTML() && cfg.adHiding != nil {
		// The bait element is an ad-like div; if the ad rules hide it,
		// its geometry collapses and the probe fires.
		views := PageViews(page)
		if len(cfg.adHiding.HiddenElements(page.Domain, views)) > 0 {
			detected = true
		}
	}
	if !detected {
		return OutcomeUndetected
	}

	// Step 3: does the user actually see the wall?
	if cfg.antiAdblockHiding != nil {
		notice := &abp.Element{Tag: "div", ID: dep.NoticeID, Classes: []string{"adblock-wall"}}
		hidden := cfg.antiAdblockHiding.HiddenElements(page.Domain, []*abp.Element{notice})
		if len(hidden) > 0 {
			return OutcomeWallSuppressed
		}
	}
	return OutcomeWallShown
}
