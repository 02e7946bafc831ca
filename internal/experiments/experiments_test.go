package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/simworld"
)

var (
	labOnce sync.Once
	testLab *Lab
	retro   *RetroResult
	retroE  error
)

// lab builds one shared 1/20-scale lab (top-5K universe → top-250 crawl)
// plus its retrospective run for all tests.
func lab(t *testing.T) (*Lab, *RetroResult) {
	t.Helper()
	labOnce.Do(func() {
		testLab = NewLab(simworld.Scaled(2, 20))
		retro, retroE = testLab.RunRetrospective(context.Background(), RetroConfig{
			Months: testLab.RetroMonths(2),
		})
	})
	if retroE != nil {
		t.Fatalf("retrospective: %v", retroE)
	}
	return testLab, retro
}

// TestFig1CountsClasses: each sampled month counts its in-force revision's
// rules per class, and the total is the sum of the classes.
func TestFig1CountsClasses(t *testing.T) {
	month := func(m time.Month) time.Time { return time.Date(2014, m, 1, 0, 0, 0, 0, time.UTC) }
	h := abp.NewHistory("x")
	for m, lines := range [][]string{{"||a.com^", "b.com###x"}, {"||a.com^", "b.com###x", "/ads.js"}} {
		var rules []*abp.Rule
		for _, line := range lines {
			r, err := abp.Parse(line)
			if err != nil {
				t.Fatal(err)
			}
			rules = append(rules, r)
		}
		h.Append(month(time.Month(m+1)), rules)
	}
	pts := Fig1(h, month(2)).Points
	if len(pts) != 2 {
		t.Fatalf("len(points) = %d", len(pts))
	}
	if pts[0].Total != 2 || pts[1].Total != 3 {
		t.Fatalf("totals = %d, %d", pts[0].Total, pts[1].Total)
	}
	if pts[1].Counts[abp.ClassHTTPPlain] != 1 {
		t.Error("plain HTTP rule not counted")
	}
}

func TestFig1Shapes(t *testing.T) {
	l, _ := lab(t)
	aak := Fig1(l.Lists.AAK, l.World.Cfg.End)
	el := Fig1(l.Lists.EasyListAA, l.World.Cfg.End)
	awrl := Fig1(l.Lists.AWRL, l.World.Cfg.End)

	if len(aak.Points) == 0 || len(el.Points) == 0 || len(awrl.Points) == 0 {
		t.Fatal("empty Figure 1 series")
	}
	// Growth: last total must exceed first.
	for _, r := range []*Fig1Result{aak, el, awrl} {
		first := r.Points[0].Total
		last := r.Points[len(r.Points)-1].Total
		if last <= first {
			t.Errorf("%s does not grow: %d → %d", r.Name, first, last)
		}
	}
	// Final mixes: EasyList-AA HTTP-heavy, AAK mixed, AWRL HTML-heavy.
	elHTML := el.FinalShares()[abp.ClassHTMLWithDomain] + el.FinalShares()[abp.ClassHTMLNoDomain]
	awrlHTML := awrl.FinalShares()[abp.ClassHTMLWithDomain] + awrl.FinalShares()[abp.ClassHTMLNoDomain]
	aakHTML := aak.FinalShares()[abp.ClassHTMLWithDomain] + aak.FinalShares()[abp.ClassHTMLNoDomain]
	if !(awrlHTML > aakHTML && aakHTML > elHTML) {
		t.Errorf("HTML shares out of order: AWRL %.2f, AAK %.2f, EL %.2f",
			awrlHTML, aakHTML, elHTML)
	}
	if !strings.Contains(aak.Render(), "Figure 1") {
		t.Error("render missing header")
	}
}

func TestTable1Shape(t *testing.T) {
	l, _ := lab(t)
	tbl := l.Table1()
	for _, name := range ListNames {
		counts := tbl.Counts[name]
		total := 0
		for _, c := range counts {
			total += c
		}
		if total < 20 {
			t.Errorf("%s lists only %d domains", name, total)
		}
		// Table 1: the deep buckets dominate.
		if counts[">1M"]+counts["100K-1M"] <= counts["1-5K"] {
			t.Errorf("%s: deep buckets (%d+%d) should outnumber top-5K (%d)",
				name, counts[">1M"], counts["100K-1M"], counts["1-5K"])
		}
	}
	if !strings.Contains(tbl.Render(), "Table 1") {
		t.Error("render missing header")
	}
}

func TestFig2Shape(t *testing.T) {
	l, _ := lab(t)
	f := l.Fig2()
	for _, name := range ListNames {
		sum := 0.0
		for _, p := range f.Percent[name] {
			sum += p
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: category percentages sum to %.1f", name, sum)
		}
	}
	_ = f.Render()
}

func TestOverlapShape(t *testing.T) {
	l, _ := lab(t)
	o := l.Overlap()
	if o.Overlap <= 0 || o.Overlap >= o.AAKDomains {
		t.Errorf("overlap = %d of %d", o.Overlap, o.AAKDomains)
	}
	if o.CELExceptionRatio <= o.AAKExceptionRatio {
		t.Errorf("CEL ratio %.1f should exceed AAK ratio %.1f",
			o.CELExceptionRatio, o.AAKExceptionRatio)
	}
	_ = o.Render()
}

func TestFig3Shape(t *testing.T) {
	l, _ := lab(t)
	f := l.Fig3()
	if len(f.DiffsDays) == 0 {
		t.Fatal("no shared domains")
	}
	if f.CELFirst <= f.AAKFirst {
		t.Errorf("CEL first %d vs AAK first %d: CEL should lead", f.CELFirst, f.AAKFirst)
	}
	_ = f.Render()
}

func TestFig5Shape(t *testing.T) {
	_, r := lab(t)
	if len(r.Months) < 10 {
		t.Fatalf("months = %d", len(r.Months))
	}
	first, last := r.Months[0], r.Months[len(r.Months)-1]
	missFirst := first.NotArchived + first.Outdated + first.Partial
	missLast := last.NotArchived + last.Outdated + last.Partial
	// Figure 5: total missing decreases (1,524 → 984 at paper scale).
	if missLast >= missFirst {
		t.Errorf("missing snapshots should fall: %d → %d", missFirst, missLast)
	}
	if last.Outdated >= first.Outdated {
		t.Errorf("outdated should fall: %d → %d", first.Outdated, last.Outdated)
	}
	if r.Excluded == 0 {
		t.Error("no excluded domains")
	}
	_ = r.RenderFig5()
}

func TestFig6Shape(t *testing.T) {
	l, r := lab(t)
	last := r.Months[len(r.Months)-1]
	aak, cel := last.HTTPTriggered["Anti-Adblock Killer"], last.HTTPTriggered["Combined EasyList"]
	// Figure 6a: AAK ≫ CEL (331 vs 16 at paper scale; ≈17 vs ≈1 here).
	if aak <= cel {
		t.Errorf("AAK HTTP %d should exceed CEL HTTP %d", aak, cel)
	}
	if aak < 5 {
		t.Errorf("AAK HTTP triggers = %d, want ≥ 5 at 1/20 scale", aak)
	}
	// Before AAK existed its counts are zero.
	for _, m := range r.Months {
		if m.Month.Year() < 2014 && m.HTTPTriggered["Anti-Adblock Killer"] != 0 {
			t.Errorf("AAK triggered in %s before the list existed", m.Month)
		}
	}
	// Figure 6b: HTML triggers stay near zero for both lists.
	for _, m := range r.Months {
		for _, n := range ListNames {
			if m.HTMLTriggered[n] > aak {
				t.Errorf("HTML triggers (%d) should stay far below HTTP", m.HTMLTriggered[n])
			}
		}
	}
	// §4.2: the matched sites overwhelmingly use third-party scripts.
	aakSites := len(r.FirstMatch["Anti-Adblock Killer"])
	if aakSites > 0 {
		share := float64(r.ThirdPartyMatched["Anti-Adblock Killer"]) / float64(aakSites)
		if share < 0.7 {
			t.Errorf("third-party share = %.2f, want high (>98%% in paper)", share)
		}
	}
	_ = l
	_ = r.RenderFig6()
}

func TestFig7Shape(t *testing.T) {
	l, _ := lab(t)
	f := l.Fig7(0)
	for _, n := range ListNames {
		if len(f.Delays[n]) == 0 {
			t.Fatalf("%s: no detection delays", n)
		}
	}
	cel, aak := f.CDFs["Combined EasyList"], f.CDFs["Anti-Adblock Killer"]
	// Figure 7: CEL is more prompt — its CDF dominates at 100 days.
	if cel.At(100) <= aak.At(100) {
		t.Errorf("CEL CDF(100)=%.2f should exceed AAK CDF(100)=%.2f",
			cel.At(100), aak.At(100))
	}
	// Both lists detect a fraction before deployment (generic rules).
	if cel.At(0) <= 0.05 || aak.At(0) <= 0.02 {
		t.Errorf("before-deployment fractions too low: CEL %.2f AAK %.2f",
			cel.At(0), aak.At(0))
	}
	_ = f.Render()
}

func TestCorpusCollected(t *testing.T) {
	_, r := lab(t)
	if len(r.CorpusPos) < 10 {
		t.Fatalf("positives = %d, want a usable corpus", len(r.CorpusPos))
	}
	if len(r.CorpusNeg) < len(r.CorpusPos) {
		t.Fatalf("negatives = %d < positives = %d", len(r.CorpusNeg), len(r.CorpusPos))
	}
}

func TestLiveCoverage(t *testing.T) {
	l, _ := lab(t)
	res, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable >= res.Total || res.Reachable < res.Total*9/10 {
		t.Fatalf("reachable = %d of %d", res.Reachable, res.Total)
	}
	aak, cel := res.HTTPTriggered["Anti-Adblock Killer"], res.HTTPTriggered["Combined EasyList"]
	// §4.3 at 1/20 scale: AAK ≈ 247, CEL ≈ 9.
	if aak <= cel*3 {
		t.Errorf("AAK %d should dwarf CEL %d", aak, cel)
	}
	frac := float64(aak) / float64(res.Reachable)
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("AAK live coverage = %.3f, want ≈ 0.05", frac)
	}
	if res.ThirdPartyShare["Anti-Adblock Killer"] < 0.7 {
		t.Errorf("AAK third-party share = %.2f, want ≈ 0.97",
			res.ThirdPartyShare["Anti-Adblock Killer"])
	}
	if len(res.Scripts) == 0 {
		t.Error("no live scripts collected")
	}
	_ = res.Render()
}
