// Package antiadblock models the anti-adblocking ecosystem the paper
// measures: third-party vendors (PageFair, BlockAdBlock, Outbrain,
// Optimizely, Histats) and first-party community scripts, the HTTP and
// HTML bait techniques of §3.1, and the generation of real JavaScript
// anti-adblock scripts (and benign scripts) with per-site randomization.
// Generated scripts parse with internal/jsast and exercise the exact API
// surface Codes 4 and 5 of the paper show.
package antiadblock

import "time"

// Technique is the adblock-detection mechanism a script uses (§3.1).
type Technique int

const (
	// TechHTTPBait issues a bait HTTP request (e.g. advertising.js) and
	// watches for onerror — Code 4 of the paper.
	TechHTTPBait Technique = iota
	// TechHTMLBait creates a bait ad-like element and probes its CSS
	// geometry — Code 5 of the paper.
	TechHTMLBait
	// TechBoth combines the two.
	TechBoth
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case TechHTTPBait:
		return "http-bait"
	case TechHTMLBait:
		return "html-bait"
	default:
		return "http+html-bait"
	}
}

// UsesHTTP reports whether the technique includes an HTTP bait.
func (t Technique) UsesHTTP() bool { return t == TechHTTPBait || t == TechBoth }

// UsesHTML reports whether the technique includes an HTML bait.
func (t Technique) UsesHTML() bool { return t == TechHTMLBait || t == TechBoth }

// Vendor is one provider of anti-adblock scripts.
type Vendor struct {
	// Name identifies the vendor.
	Name string
	// Domain is the third-party host serving the script, or "" for
	// first-party (inline or same-origin) scripts.
	Domain string
	// ScriptPath is the path of the vendor's detector script.
	ScriptPath string
	// Technique is the detection mechanism the script implements.
	Technique Technique
	// Available is when the vendor's product entered the market; sites
	// cannot deploy it earlier.
	Available time.Time
	// Share weights how often publishers pick this vendor. The paper
	// finds nearly every detected site uses a third-party vendor script.
	Share float64
}

// ThirdParty reports whether the vendor serves its script from its own
// domain.
func (v *Vendor) ThirdParty() bool { return v.Domain != "" }

// ScriptURL returns the URL a deployment on siteDomain loads the vendor
// script from.
func (v *Vendor) ScriptURL(siteDomain string) string {
	if v.ThirdParty() {
		return "http://" + v.Domain + v.ScriptPath
	}
	return "http://" + siteDomain + v.ScriptPath
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Catalog is the vendor population of the synthetic web. Names and domains
// follow the vendors the paper names (§1, §4.2, §5: PageFair, Outbrain,
// BlockAdBlock, IAB, Optimizely, Histats, npttech); availability dates
// shape Figure 6's take-off after 2014.
var Catalog = []*Vendor{
	{
		Name: "PageFair", Domain: "pagefair.com",
		ScriptPath: "/static/adblock_detection/js/d.min.js",
		Technique:  TechBoth, Available: date(2012, 9, 1), Share: 0.22,
	},
	{
		Name: "BlockAdBlock", Domain: "blockadblock.com",
		ScriptPath: "/js/blockadblock.js",
		Technique:  TechHTMLBait, Available: date(2014, 1, 1), Share: 0.20,
	},
	{
		Name: "Outbrain", Domain: "outbrain.com",
		ScriptPath: "/utils/adblock/detector.js",
		Technique:  TechHTTPBait, Available: date(2013, 9, 1), Share: 0.12,
	},
	{
		Name: "Optimizely", Domain: "optimizely.com",
		ScriptPath: "/js/adblock-probe.js",
		Technique:  TechHTTPBait, Available: date(2014, 4, 1), Share: 0.16,
	},
	{
		Name: "Histats", Domain: "histats.com",
		ScriptPath: "/js15_as.js",
		Technique:  TechHTTPBait, Available: date(2014, 7, 1), Share: 0.14,
	},
	{
		Name: "NPTTech", Domain: "npttech.com",
		ScriptPath: "/advertising.js",
		Technique:  TechHTTPBait, Available: date(2014, 10, 1), Share: 0.08,
	},
	{
		Name: "IAB", Domain: "",
		ScriptPath: "/js/iab-adblock-check.js",
		Technique:  TechHTTPBait, Available: date(2015, 3, 1), Share: 0.06,
	},
	{
		Name: "Custom", Domain: "",
		ScriptPath: "/js/site-adblock.js",
		Technique:  TechBoth, Available: date(2012, 6, 1), Share: 0.02,
	},
}

// VendorByName looks a catalog vendor up; nil when absent.
func VendorByName(name string) *Vendor {
	for _, v := range Catalog {
		if v.Name == name {
			return v
		}
	}
	return nil
}
