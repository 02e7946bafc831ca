package listgen

import (
	"strings"
	"sync"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/simworld"
)

var (
	once      sync.Once
	testWorld *simworld.World
	testLists *Lists
)

// lists builds one shared 1/20-scale world + lists for all tests.
func lists(t *testing.T) (*simworld.World, *Lists) {
	t.Helper()
	once.Do(func() {
		testWorld = simworld.New(simworld.Scaled(11, 20))
		testLists = Generate(testWorld, 11)
	})
	return testWorld, testLists
}

func latest(t *testing.T, h *abp.History) *abp.List {
	t.Helper()
	rev, ok := h.Latest()
	if !ok {
		t.Fatalf("history %s is empty", h.Name)
	}
	return abp.NewList(h.Name, rev.Rules)
}

func TestGenerateDeterministic(t *testing.T) {
	w := simworld.New(simworld.Scaled(7, 50))
	l1 := Generate(w, 7)
	l2 := Generate(w, 7)
	r1, _ := l1.AAK.Latest()
	r2, _ := l2.AAK.Latest()
	if len(r1.Rules) != len(r2.Rules) {
		t.Fatalf("AAK rules %d vs %d", len(r1.Rules), len(r2.Rules))
	}
	for i := range r1.Rules {
		if r1.Rules[i].Raw != r2.Rules[i].Raw {
			t.Fatalf("rule %d differs", i)
		}
	}
}

func TestAAKRuleMix(t *testing.T) {
	_, ls := lists(t)
	l := latest(t, ls.AAK)
	counts := l.CountByClass()
	total := l.Len()
	if total < 30 {
		t.Fatalf("AAK too small: %d rules", total)
	}
	html := counts[abp.ClassHTMLWithDomain] + counts[abp.ClassHTMLNoDomain]
	frac := float64(html) / float64(total)
	// Paper: 41.5% HTML rules.
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("AAK HTML share = %.2f, want ≈ 0.41", frac)
	}
	if counts[abp.ClassHTTPAnchor] == 0 || counts[abp.ClassHTTPAnchorTag] == 0 {
		t.Error("AAK missing anchor / anchor+tag rules")
	}
}

func TestEasyListAARuleMix(t *testing.T) {
	_, ls := lists(t)
	l := latest(t, ls.EasyListAA)
	counts := l.CountByClass()
	total := l.Len()
	html := counts[abp.ClassHTMLWithDomain] + counts[abp.ClassHTMLNoDomain]
	frac := float64(html) / float64(total)
	// Paper: 3.7% HTML rules in EasyList's anti-adblock sections.
	if frac > 0.12 {
		t.Errorf("EasyList-AA HTML share = %.2f, want ≈ 0.04", frac)
	}
	anchor := counts[abp.ClassHTTPAnchor]
	if float64(anchor)/float64(total) < 0.4 {
		t.Errorf("EasyList-AA anchor share = %.2f, want dominant (0.646 in paper)",
			float64(anchor)/float64(total))
	}
}

func TestAWRLRuleMix(t *testing.T) {
	_, ls := lists(t)
	l := latest(t, ls.AWRL)
	counts := l.CountByClass()
	total := l.Len()
	html := counts[abp.ClassHTMLWithDomain] + counts[abp.ClassHTMLNoDomain]
	frac := float64(html) / float64(total)
	// Paper: 67.7% HTML rules.
	if frac < 0.45 {
		t.Errorf("AWRL HTML share = %.2f, want ≈ 0.68", frac)
	}
	if counts[abp.ClassHTMLNoDomain] == 0 {
		t.Error("AWRL should carry generic (domain-less) HTML rules")
	}
}

func TestExceptionRatios(t *testing.T) {
	_, ls := lists(t)
	aak := latest(t, ls.AAK)
	cel := latest(t, ls.Combined)
	aakExc, aakNon := aak.ExceptionDomainSplit()
	celExc, celNon := cel.ExceptionDomainSplit()
	aakRatio := float64(len(aakExc)) / float64(len(aakNon))
	celRatio := float64(len(celExc)) / float64(len(celNon))
	// §3.3: CEL ≈ 4:1 exception:non-exception, AAK ≈ 1:1.
	if aakRatio < 0.5 || aakRatio > 1.8 {
		t.Errorf("AAK exception ratio = %.2f, want ≈ 1", aakRatio)
	}
	if celRatio < 2.2 || celRatio > 7 {
		t.Errorf("CEL exception ratio = %.2f, want ≈ 4", celRatio)
	}
	if celRatio <= aakRatio {
		t.Error("CEL must be more exception-heavy than AAK")
	}
}

func TestDomainOverlap(t *testing.T) {
	_, ls := lists(t)
	aakDomains := latest(t, ls.AAK).Domains()
	celDomains := latest(t, ls.Combined).Domains()
	inAAK := map[string]bool{}
	for _, d := range aakDomains {
		inAAK[d] = true
	}
	overlap := 0
	for _, d := range celDomains {
		if inAAK[d] {
			overlap++
		}
	}
	// Paper (full scale): 1,415 and 1,394 domains, 282 shared. At 1/20
	// scale expect ≈ 70, 70, 14 — plus vendor-domain noise.
	if overlap < 5 || overlap > 40 {
		t.Errorf("overlap = %d, want ≈ 14 at this scale", overlap)
	}
	small := float64(overlap)
	if small/float64(len(aakDomains)) > 0.6 {
		t.Errorf("overlap should be the minority of listed domains (%d of %d)",
			overlap, len(aakDomains))
	}
}

func TestGrowthMonotone(t *testing.T) {
	_, ls := lists(t)
	for _, h := range []*abp.History{ls.AAK, ls.EasyListAA, ls.AWRL, ls.Combined} {
		prev := 0
		for _, rev := range h.Revisions() {
			total := 0
			for _, r := range rev.Rules {
				if r.Class() != abp.ClassUnknown {
					total++
				}
			}
			if total < prev {
				t.Errorf("%s shrinks at %s: %d → %d", h.Name,
					rev.Time.Format("2006-01"), prev, total)
				break
			}
			prev = total
		}
		if prev == 0 {
			t.Errorf("%s ends empty", h.Name)
		}
	}
}

func TestAAKAbandonedNov2016(t *testing.T) {
	_, ls := lists(t)
	last, _ := ls.AAK.Latest()
	if last.Time.After(AAKLastUpdate) {
		t.Fatalf("AAK updated after abandonment: %s", last.Time)
	}
	// The Combined EasyList keeps updating into 2017.
	lastCEL, _ := ls.Combined.Latest()
	if lastCEL.Time.Year() != 2017 {
		t.Fatalf("CEL last revision %s, want 2017", lastCEL.Time)
	}
}

func TestAAKCadenceSlowsAfterNov2015(t *testing.T) {
	_, ls := lists(t)
	revs := ls.AAK.Revisions()
	cut := time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)
	var fast, slow []time.Time
	for _, r := range revs {
		if r.Time.Before(cut) {
			fast = append(fast, r.Time)
		} else {
			slow = append(slow, r.Time)
		}
	}
	if len(fast) < 2 || len(slow) < 2 {
		t.Fatal("not enough revisions on both sides of the cadence switch")
	}
	fastGap := fast[1].Sub(fast[0])
	slowGap := slow[1].Sub(slow[0])
	if slowGap <= fastGap*3 {
		t.Errorf("cadence did not slow: %v → %v", fastGap, slowGap)
	}
}

func TestAWRLFrenchSpike(t *testing.T) {
	_, ls := lists(t)
	before := ls.AWRL.ListAt(time.Date(2016, 3, 31, 0, 0, 0, 0, time.UTC))
	after := ls.AWRL.ListAt(time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC))
	if before == nil || after == nil {
		t.Fatal("AWRL history gap around April 2016")
	}
	jump := after.Len() - before.Len()
	if jump < 2 {
		t.Errorf("April 2016 spike = %d new rules, want a visible batch", jump)
	}
}

func TestCombinedFirstMoreOftenThanAAK(t *testing.T) {
	w, ls := lists(t)
	_ = w
	aakFirst, celFirst := 0, 0
	aakSeen := ls.AAK.DomainFirstSeen()
	celSeen := ls.Combined.DomainFirstSeen()
	for d, at := range aakSeen {
		ct, ok := celSeen[d]
		if !ok {
			continue
		}
		switch {
		case ct.Before(at):
			celFirst++
		case at.Before(ct):
			aakFirst++
		}
	}
	if celFirst+aakFirst < 5 {
		t.Skip("too few shared domains at this scale")
	}
	// Figure 3: 185 of 282 appear first in CEL.
	if celFirst <= aakFirst {
		t.Errorf("CEL first %d vs AAK first %d; CEL should lead", celFirst, aakFirst)
	}
}

func TestVendorRuleLookups(t *testing.T) {
	if AAKVendorRuleTime("PageFair").IsZero() {
		t.Error("AAK PageFair rule time missing")
	}
	if !AAKVendorRuleTime("NoSuchVendor").IsZero() {
		t.Error("unknown vendor should have zero time")
	}
	if CELBroadRuleTime("Custom").IsZero() {
		t.Error("CEL Custom broad rule time missing")
	}
	if !CELBroadRuleTime("PageFair").IsZero() {
		t.Error("CEL has no PageFair broad rule")
	}
}

func TestGeneratedRulesAllParse(t *testing.T) {
	_, ls := lists(t)
	for _, h := range []*abp.History{ls.AAK, ls.EasyListAA, ls.AWRL} {
		rev, _ := h.Latest()
		for _, r := range rev.Rules {
			if r.Kind == abp.KindInvalid || r.Kind == abp.KindComment {
				t.Fatalf("%s contains unparsed rule %q", h.Name, r.Raw)
			}
		}
	}
}

func TestHistoriesReplayable(t *testing.T) {
	_, ls := lists(t)
	// ListAt at several instants must compile and grow over time.
	prev := 0
	for _, m := range []time.Time{
		time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
	} {
		l := ls.Combined.ListAt(m)
		if l == nil {
			t.Fatalf("CEL missing at %s", m)
		}
		if l.Len() < prev {
			t.Fatalf("CEL shrank by %s", m)
		}
		prev = l.Len()
	}
}

func TestRenderListRoundTrip(t *testing.T) {
	_, ls := lists(t)
	for _, h := range []*abp.History{ls.AAK, ls.EasyListAA, ls.AWRL} {
		text := RenderLatest(h)
		if text == "" {
			t.Fatalf("%s rendered empty", h.Name)
		}
		rules, errs := abp.ParseList(text)
		if len(errs) != 0 {
			t.Fatalf("%s round trip errors: %v", h.Name, errs[0])
		}
		rev, _ := h.Latest()
		if len(rules) != len(rev.Rules) {
			t.Fatalf("%s round trip: %d rules, want %d", h.Name, len(rules), len(rev.Rules))
		}
		// The compiled round-tripped list must behave identically on a
		// probe request.
		orig := abp.NewList(h.Name, rev.Rules)
		back := abp.NewList(h.Name, rules)
		q := abp.Request{URL: "http://pagefair.com/x.js", Type: abp.TypeScript, PageDomain: "p.com"}
		d1, _ := orig.MatchRequest(q)
		d2, _ := back.MatchRequest(q)
		if d1 != d2 {
			t.Fatalf("%s round trip changed matching: %v vs %v", h.Name, d1, d2)
		}
	}
}

func TestRenderAt(t *testing.T) {
	_, ls := lists(t)
	if _, ok := ls.AAK.At(day(2013, 1, 1)); ok {
		t.Error("AAK should have no revision before it exists")
	}
	rev, ok := ls.AAK.At(day(2015, 6, 1))
	if !ok {
		t.Fatal("AAK has no revision in force in June 2015")
	}
	text := RenderList(ls.AAK.Name, rev)
	if !strings.Contains(text, "[Adblock Plus 2.0]") || !strings.Contains(text, "! Title:") {
		t.Error("header missing")
	}
	var empty abp.History
	if RenderLatest(&empty) != "" {
		t.Error("empty history should render empty")
	}
}

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}
