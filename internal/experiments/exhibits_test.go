package experiments

import (
	"context"
	"os"
	"path/filepath"
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

// TestPaperComparison renders the target table over the test world with
// every result but Table 3's: one row per target, Table 3's rows not
// measured and every other row measured, and Figure 6a's AAK coverage — the
// headline — inside its band.
func TestPaperComparison(t *testing.T) {
	l, r := lab(t)
	live, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	corpus := &Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}
	liveTest, err := LiveModelTest(corpus, live.Scripts, 5000, 3, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTargets(l, &Results{Retro: r, Live: live, Fig7: l.Fig7(0), LiveTest: liveTest})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	targets := Targets()
	if len(lines) != len(targets)+2 {
		t.Fatalf("%d table lines for %d targets:\n%s", len(lines), len(targets), out)
	}
	for i, tg := range targets {
		cells := strings.Split(lines[i+2], " | ")
		verdict := strings.TrimSuffix(cells[len(cells)-1], " |")
		table3 := strings.HasPrefix(tg.Quantity, "best configuration")
		if (verdict == "—") != table3 {
			t.Errorf("%s %q: verdict %s", tg.ID, tg.Quantity, verdict)
		}
		if tg.ID == "F6a" && tg.Quantity == "sites triggering AAK HTTP rules, Jul 2016" && verdict != "✓" {
			t.Errorf("Figure 6a's AAK coverage out of its band: %s", lines[i+2])
		}
	}
}

// TestTargetsAgreeWithFig1: the rule counts the targets hold a list to are
// the first and last points of its Figure 1 series — the last the revision
// in force at the end of the study window, not one committed after it (AAK
// keeps releasing past the window; the comparison once took its latest).
func TestTargetsAgreeWithFig1(t *testing.T) {
	l, _ := lab(t)
	lists := map[string]*abp.History{"AAK": l.Lists.AAK, "AWRL": l.Lists.AWRL, "EasyList-AA": l.Lists.EasyListAA}
	checked := 0
	for _, tg := range Targets() {
		list, when, ok := strings.Cut(tg.Quantity, " rules, ")
		if !ok || lists[list] == nil {
			continue
		}
		pts := Fig1(lists[list], l.World.Cfg.End).Points
		want := pts[len(pts)-1].Total
		if when == "first revision" {
			want = pts[0].Total
		}
		if got := tg.Measure(l, &Results{}); got != float64(want) {
			t.Errorf("%s %q reads %v, Figure 1 says %d", tg.ID, tg.Quantity, got, want)
		}
		checked++
	}
	if checked != 2*len(lists) {
		t.Fatalf("checked %d Figure 1 rule-count targets, want %d", checked, 2*len(lists))
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

// TestExperimentsTableIsTheReport: EXPERIMENTS.md's table is the "Paper vs
// measured" section of the committed report_full.txt, byte for byte; that
// section declares the targets as Targets() does (ID, quantity, paper value
// at scale 1 and band, so a target edited without regenerating the report
// fails); and its verdicts are all ✓ but the two the paper's shape loses at
// paper scale: which list has more domains (T1) and whose rules precede
// deployment more often (F7 at 0 days).
func TestExperimentsTableIsTheReport(t *testing.T) {
	read := func(name string) []string {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(b), "\n")
	}
	table := func(lines []string) []string {
		var rows []string
		for _, line := range lines {
			if strings.HasPrefix(line, "|") {
				rows = append(rows, line)
			}
		}
		return rows
	}
	report := read("report_full.txt")
	for len(report) > 0 && !strings.Contains(report[0], "=== Paper vs measured ===") {
		report = report[1:]
	}
	rows := table(report)
	if doc := table(read("EXPERIMENTS.md")); strings.Join(doc, "\n") != strings.Join(rows, "\n") {
		t.Fatal(`EXPERIMENTS.md's table is not report_full.txt's "Paper vs measured" section: paste that section in verbatim`)
	}
	targets := Targets()
	if len(rows) != len(targets)+2 {
		t.Fatalf("report_full.txt has %d target rows, Targets() %d: regenerate the report", len(rows)-2, len(targets))
	}
	var lost []string
	for i, tg := range targets {
		cells := strings.Split(strings.TrimSuffix(rows[i+2], " |"), " | ")
		want := []string{"| " + tg.ID, tg.Quantity, formatValue(tg.Paper, tg.Unit)}
		if got := cells[:3]; strings.Join(got, " | ") != strings.Join(want, " | ") ||
			cells[5] != formatValue(tg.Band[0], "")+"–"+formatValue(tg.Band[1], "") {
			t.Errorf("report_full.txt declares %q, Targets() %q band %v: regenerate the report", rows[i+2], want, tg.Band)
		}
		if cells[6] != "✓" {
			lost = append(lost, tg.ID+" "+tg.Quantity)
		}
	}
	if strings.Join(lost, "; ") != "T1 AAK ÷ CEL listed domains: AAK the larger; F7 CEL ÷ AAK at 0 days: CEL's rules more often first" {
		t.Errorf("rows not ✓ at paper scale: %q", lost)
	}
}
