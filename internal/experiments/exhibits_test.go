package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/browser"
	"adwars/internal/features"
)

func TestSharedRuleExhibit(t *testing.T) {
	l, _ := lab(t)
	rows := l.SharedRuleExhibit(5)
	if len(rows) == 0 {
		t.Fatal("no shared-domain exhibits")
	}
	for _, r := range rows {
		if len(r.AAK) == 0 || len(r.CEL) == 0 {
			t.Fatalf("exhibit for %s missing a side", r.Domain)
		}
		if sameStrings(r.AAK, r.CEL) {
			t.Fatalf("exhibit for %s shows identical implementations", r.Domain)
		}
	}
	out := RenderSharedRules(rows)
	if !strings.Contains(out, "Anti-Adblock Killer") || !strings.Contains(out, "Combined EasyList") {
		t.Error("render missing list labels")
	}
}

func TestTopFeatures(t *testing.T) {
	_, r := lab(t)
	c := &Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}
	rows, err := TopFeatures(c, features.SetKeyword, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Scores must be sorted descending and positive at the top.
	for i := 1; i < len(rows); i++ {
		if rows[i].Chi2 > rows[i-1].Chi2 {
			t.Fatal("importance not sorted")
		}
	}
	if rows[0].Chi2 <= 0 {
		t.Fatal("top feature has no discriminative power")
	}
	// The anti-adblock fingerprint should surface geometry or injection
	// API keywords near the top.
	joined := ""
	for _, row := range rows {
		joined += row.Feature + " "
	}
	found := false
	for _, marker := range []string{"offset", "client", "setAttribute", "onerror", "cookie", "getElementById", "createElement"} {
		if strings.Contains(joined, marker) {
			found = true
		}
	}
	if !found {
		t.Errorf("top keyword features carry no bait fingerprint: %s", joined)
	}
	_ = RenderTopFeatures(rows, features.SetKeyword)
}

func TestCompareBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline CV is slow")
	}
	_, r := lab(t)
	c := &Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}
	res, err := CompareBaselines(c, 7, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The ML classifier must beat signatures on randomized builds.
	if res.MLTP <= res.SignatureTP {
		t.Errorf("ML TP %.2f should exceed signature TP %.2f", res.MLTP, res.SignatureTP)
	}
	if res.MLTP < 0.9 {
		t.Errorf("ML TP %.2f too low", res.MLTP)
	}
	if len(res.Matched) == 0 {
		t.Error("no signature hits recorded")
	}
	if !strings.Contains(res.Render(), "signatures") {
		t.Error("render malformed")
	}
}

func TestCircumvention(t *testing.T) {
	l, _ := lab(t)
	res := l.Circumvention(0, time.Time{})
	if res.Deployed == 0 {
		t.Fatal("no deployed sites")
	}
	aak := protectedRate(res, "Anti-Adblock Killer")
	cel := protectedRate(res, "Combined EasyList")
	none := protectedRate(res, "(no anti-adblock list)")
	// AAK's broad vendor rules protect far more users than CEL; without
	// any anti-adblock list nearly every deployed site walls the user.
	if aak <= cel {
		t.Errorf("AAK protected %.2f should exceed CEL %.2f", aak, cel)
	}
	if none >= aak {
		t.Errorf("baseline %.2f should be the worst (AAK %.2f)", none, aak)
	}
	if aak < 0.5 {
		t.Errorf("AAK protected rate %.2f suspiciously low", aak)
	}
	if !strings.Contains(res.Render(), "circumvented") {
		t.Error("render malformed")
	}
}

func TestPaperComparison(t *testing.T) {
	l, r := lab(t)
	live, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := l.Collect(r, live, l.Fig7(0), nil, nil)
	rows := PaperComparison(s, l.Scale())
	if len(rows) < 20 {
		t.Fatalf("comparison rows = %d", len(rows))
	}
	// Count-valued rows should land within 4x of the scaled paper value
	// for the coverage headline (shape reproduction).
	for _, row := range rows {
		if row.Metric == "AAK HTTP-triggered sites (Jul 2016)" {
			ratio := row.Measured / row.Paper
			if ratio < 0.25 || ratio > 4 {
				t.Errorf("Fig6a AAK ratio %.2f out of shape band", ratio)
			}
		}
	}
	out := RenderComparison(rows)
	if !strings.Contains(out, "measured") {
		t.Error("render malformed")
	}
}

// TestSummaryAgreesWithFig1: the "rules (Jul 2016)" figures of the comparison
// are the last row of each list's Figure 1 series — the revision in force at
// the end of the study window, not one committed after it (AAK keeps
// releasing past the window; Collect once took its latest).
func TestSummaryAgreesWithFig1(t *testing.T) {
	l, _ := lab(t)
	s := l.Collect(nil, nil, nil, nil, nil)
	for _, c := range []struct {
		h    *abp.History
		have int
	}{
		{l.Lists.AAK, s.AAKRulesFinal},
		{l.Lists.EasyListAA, s.EasyListAARulesFinal},
		{l.Lists.AWRL, s.AWRLRulesFinal},
	} {
		pts := Fig1(c.h, l.World.Cfg.End).Points
		if len(pts) == 0 || pts[len(pts)-1].Total != c.have {
			t.Errorf("%s: summary says %d rules, Figure 1 ends at %+v", c.h.Name, c.have, pts[len(pts)-1:])
		}
	}
}

// protectedRate returns the fraction of deployed sites where the list
// spares the user the wall (circumvented, suppressed, or undetected).
func protectedRate(r *CircumventionResult, list string) float64 {
	if r.Deployed == 0 {
		return 0
	}
	c := r.Outcomes[list]
	protected := c[browser.OutcomeCircumvented] +
		c[browser.OutcomeWallSuppressed] + c[browser.OutcomeUndetected]
	return float64(protected) / float64(r.Deployed)
}
