package antiadblock

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"adwars/internal/features"
	"adwars/internal/jsast"
	"adwars/internal/web"
)

func TestCatalogSanity(t *testing.T) {
	if len(Catalog) < 5 {
		t.Fatalf("catalog has %d vendors", len(Catalog))
	}
	total := 0.0
	for _, v := range Catalog {
		if v.Name == "" || v.ScriptPath == "" {
			t.Errorf("vendor %+v incomplete", v)
		}
		total += v.Share
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("vendor shares sum to %v, want ~1", total)
	}
	if VendorByName("PageFair") == nil || VendorByName("BlockAdBlock") == nil {
		t.Error("paper-named vendors missing")
	}
	if VendorByName("nope") != nil {
		t.Error("unknown vendor should be nil")
	}
}

func TestVendorScriptURL(t *testing.T) {
	pf := VendorByName("PageFair")
	if got := pf.ScriptURL("news.com"); got != "http://pagefair.com/static/adblock_detection/js/d.min.js" {
		t.Fatalf("third-party URL = %q", got)
	}
	iab := VendorByName("IAB")
	if got := iab.ScriptURL("news.com"); got != "http://news.com/js/iab-adblock-check.js" {
		t.Fatalf("first-party URL = %q", got)
	}
	if pf.ThirdParty() == false || iab.ThirdParty() == true {
		t.Error("ThirdParty misreported")
	}
}

// Every generated script must parse with the project's own JS parser —
// the whole ML pipeline depends on it.
func TestGeneratedScriptsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opt := GenOptions{PackProbability: 0.3}
	for i := 0; i < 50; i++ {
		for _, v := range Catalog {
			src := VendorScript(v, "http://x.com/ads.js", "noticeMain", rng, opt)
			if _, _, err := jsast.ParseAndUnpack(src); err != nil {
				t.Fatalf("vendor %s script does not parse: %v\n%s", v.Name, err, src)
			}
		}
	}
}

func TestBenignScriptsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		for _, k := range BenignKinds() {
			src := BenignScript(k, rng, GenOptions{Minify: i%2 == 0})
			if _, _, err := jsast.ParseAndUnpack(src); err != nil {
				t.Fatalf("benign kind %d does not parse: %v\n%s", k, err, src)
			}
		}
	}
}

func TestCanRunAdsScriptParses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := CanRunAdsScript("notice1", rng, GenOptions{})
	prog, _, err := jsast.ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil || len(prog.Body) == 0 {
		t.Fatal("empty program")
	}
}

func TestAntiAdblockScriptsCarryBaitFeatures(t *testing.T) {
	// Probe sets vary per site build; each script must carry several
	// geometry probes and the union across builds must cover them all.
	rng := rand.New(rand.NewSource(4))
	probes := []string{
		"Identifier:offsetParent", "Identifier:offsetHeight",
		"Identifier:offsetLeft", "Identifier:offsetTop",
		"Identifier:offsetWidth", "Identifier:clientHeight",
		"Identifier:clientWidth",
	}
	union := map[string]bool{}
	for i := 0; i < 20; i++ {
		src := HTMLBaitScript("noticeMain", rng, GenOptions{})
		fs, err := features.ExtractSource(src, features.SetKeyword)
		if err != nil {
			t.Fatal(err)
		}
		if !fs["Identifier:createElement"] {
			t.Error("HTML bait script missing createElement")
		}
		n := 0
		for _, p := range probes {
			if fs[p] {
				n++
				union[p] = true
			}
		}
		if n < 3 {
			t.Errorf("script %d carries only %d geometry probes", i, n)
		}
	}
	for _, p := range probes {
		if !union[p] {
			t.Errorf("probe %q never generated across builds", p)
		}
	}
}

func TestReferenceBlockAdBlockParses(t *testing.T) {
	fs, err := features.ExtractSource(ReferenceBlockAdBlock, features.SetAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"MemberExpression:BlockAdBlock", "Literal:abp",
		"Identifier:offsetHeight", "Identifier:clientWidth",
	} {
		if !fs[want] {
			t.Errorf("reference script missing %q", want)
		}
	}
}

func TestPackedScriptStillYieldsFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := HTMLBaitScript("noticeX", rng, GenOptions{PackProbability: 1})
	if !strings.HasPrefix(src, `eval("`) {
		t.Fatalf("script not packed: %.40q", src)
	}
	fs, err := features.ExtractSource(src, features.SetKeyword)
	if err != nil {
		t.Fatal(err)
	}
	if !fs["Identifier:offsetHeight"] {
		t.Error("unpacking lost the geometry-probe features")
	}
}

func TestScriptsRandomizedAcrossSites(t *testing.T) {
	a := HTMLBaitScript("notice", rand.New(rand.NewSource(10)), GenOptions{})
	b := HTMLBaitScript("notice", rand.New(rand.NewSource(11)), GenOptions{})
	if a == b {
		t.Fatal("scripts for different sites must differ")
	}
	// But same seed ⇒ identical (reproducible crawls).
	c := HTMLBaitScript("notice", rand.New(rand.NewSource(10)), GenOptions{})
	if a != c {
		t.Fatal("same seed must reproduce the same script")
	}
}

func TestDeploymentApply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := VendorByName("PageFair")
	d := NewDeployment("dailynews.com", v, time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC), rng)
	p := web.NewPage("dailynews.com", "Daily News")
	d.Apply(p, rng, GenOptions{})

	if !slices.ContainsFunc(p.Elements(), func(e *web.Element) bool { return e.ID == d.NoticeID }) {
		t.Fatal("warning overlay not injected")
	}
	foundScriptReq, foundBaitReq := false, false
	for _, r := range p.Requests {
		if r.URL == d.ScriptURL {
			foundScriptReq = true
		}
		if r.URL == d.BaitURL() {
			foundBaitReq = true
		}
	}
	if !foundScriptReq {
		t.Error("vendor script request missing")
	}
	if !foundBaitReq { // PageFair uses TechBoth
		t.Error("HTTP bait request missing")
	}
	if len(p.Scripts) != 1 || !p.Scripts[0].AntiAdblock {
		t.Fatalf("scripts = %+v", p.Scripts)
	}
}

func TestDeploymentActiveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	d := NewDeployment("x.com", Catalog[0], start, rng)
	if d.ActiveAt(start.AddDate(0, -1, 0)) {
		t.Error("active before start")
	}
	if !d.ActiveAt(start) || !d.ActiveAt(start.AddDate(2, 0, 0)) {
		t.Error("open-ended deployment should stay active")
	}
	d.End = start.AddDate(1, 0, 0)
	if d.ActiveAt(start.AddDate(1, 6, 0)) {
		t.Error("active after end")
	}
}

func TestTechniqueString(t *testing.T) {
	if TechHTTPBait.String() != "http-bait" || TechHTMLBait.String() != "html-bait" ||
		TechBoth.String() != "http+html-bait" {
		t.Error("technique names wrong")
	}
}
