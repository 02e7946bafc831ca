package browser

import (
	"math/rand"
	"testing"
	"time"

	"adwars/internal/antiadblock"
	"adwars/internal/listgen"
	"adwars/internal/web"
)

func deployedPage(t *testing.T, vendorName string, seed int64) (*web.Page, *antiadblock.Deployment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := antiadblock.VendorByName(vendorName)
	if v == nil {
		t.Fatalf("vendor %q missing", vendorName)
	}
	d := antiadblock.NewDeployment("pub.example", v,
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), rng)
	p := web.NewPage("pub.example", "Pub")
	d.Apply(p, rng, antiadblock.GenOptions{})
	return p, d
}

func TestSimulateVisitClean(t *testing.T) {
	p := web.NewPage("benign.example", "B")
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), nil), p, nil)
	if got != OutcomeClean {
		t.Fatalf("outcome = %v, want clean", got)
	}
}

func TestSimulateVisitWallWithoutProtection(t *testing.T) {
	p, d := deployedPage(t, "PageFair", 1)
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), nil), p, d)
	if got != OutcomeWallShown {
		t.Fatalf("outcome = %v, want wall-shown (ad rules block the bait)", got)
	}
}

func TestSimulateVisitCircumvented(t *testing.T) {
	p, d := deployedPage(t, "PageFair", 2)
	aak := buildList(t, "||pagefair.com^$third-party")
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), aak), p, d)
	if got != OutcomeCircumvented {
		t.Fatalf("outcome = %v, want circumvented", got)
	}
}

func TestSimulateVisitBaitException(t *testing.T) {
	p, d := deployedPage(t, "Outbrain", 3) // HTTP bait only
	// An exception rule lets the bait load (Code 7's numerama pattern).
	exc := buildList(t, "@@||pub.example"+d.BaitPath)
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), exc), p, d)
	if got != OutcomeUndetected {
		t.Fatalf("outcome = %v, want undetected via bait exception", got)
	}
}

func TestSimulateVisitWallSuppressed(t *testing.T) {
	p, d := deployedPage(t, "Outbrain", 4)
	hide := buildList(t, "pub.example###"+d.NoticeID)
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), hide), p, d)
	if got != OutcomeWallSuppressed {
		t.Fatalf("outcome = %v, want wall-suppressed", got)
	}
}

func TestSimulateVisitHTMLBaitDetection(t *testing.T) {
	p, d := deployedPage(t, "BlockAdBlock", 5) // HTML bait only
	got := SimulateVisit(NewVisitConfig(listgen.AdBlockingList(), nil), p, d)
	if got != OutcomeWallShown {
		t.Fatalf("outcome = %v, want wall-shown (bait div hidden by ad rules)", got)
	}
	// Without ad rules nothing collapses the bait: undetected.
	got = SimulateVisit(VisitConfig{}, p, d)
	if got != OutcomeUndetected {
		t.Fatalf("outcome = %v, want undetected without ad rules", got)
	}
}

func TestVisitOutcomeStrings(t *testing.T) {
	names := map[VisitOutcome]string{
		OutcomeClean: "clean", OutcomeCircumvented: "circumvented",
		OutcomeUndetected: "undetected", OutcomeWallSuppressed: "wall-suppressed",
		OutcomeWallShown: "wall-shown", VisitOutcome(99): "unknown",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d = %q, want %q", o, o.String(), want)
		}
	}
}
