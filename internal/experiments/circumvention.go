package experiments

import (
	"fmt"
	"strings"
	"time"

	"adwars/internal/browser"
	"adwars/internal/listgen"
)

// CircumventionResult tallies, per anti-adblock list, what adblock users
// experience on deployed sites — the end-to-end effectiveness the filter
// lists exist to deliver (the trigger counts of §4 measure coverage; this
// measures consequence).
type CircumventionResult struct {
	At       time.Time
	Deployed int
	// Outcomes maps list name → outcome → site count.
	Outcomes map[string]map[browser.VisitOutcome]int
}

// Circumvention simulates an adblock user (general ad rules + one
// anti-adblock list) visiting every deployed top-N site at time t.
func (l *Lab) Circumvention(topN int, at time.Time) *CircumventionResult {
	if topN <= 0 {
		topN = int(5000 * l.Scale())
	}
	if at.IsZero() {
		at = l.World.Cfg.End
	}
	// One setup per list version, built here and shared by every page.
	adRules := listgen.AdBlockingList()
	configs := map[string]browser.VisitConfig{
		// A no-protection baseline: ad blocking without any anti-adblock list.
		"(no anti-adblock list)": browser.NewVisitConfig(adRules, nil),
	}
	for name, h := range l.histories() {
		configs[name] = browser.NewVisitConfig(adRules, h.ListAt(at))
	}

	res := &CircumventionResult{At: at, Outcomes: map[string]map[browser.VisitOutcome]int{}}
	for name := range configs {
		res.Outcomes[name] = map[browser.VisitOutcome]int{}
	}
	top := map[string]bool{}
	for _, d := range l.World.TopDomains(topN) {
		top[d] = true
	}
	for _, dep := range l.World.Deployments() {
		if !top[dep.SiteDomain] || !dep.ActiveAt(at) {
			continue
		}
		page, ok := l.World.PageAt(dep.SiteDomain, at)
		if !ok {
			continue
		}
		res.Deployed++
		for name, cfg := range configs {
			res.Outcomes[name][browser.SimulateVisit(cfg, page, dep)]++
		}
	}
	return res
}

// Render prints the outcome distribution per list.
func (r *CircumventionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Circumvention effectiveness at %s over %d deployed sites\n",
		r.At.Format("2006-01"), r.Deployed)
	outcomes := []browser.VisitOutcome{
		browser.OutcomeCircumvented, browser.OutcomeWallSuppressed,
		browser.OutcomeUndetected, browser.OutcomeWallShown,
	}
	fmt.Fprintf(&b, "%-26s", "list")
	for _, o := range outcomes {
		fmt.Fprintf(&b, " %16s", o)
	}
	b.WriteByte('\n')
	names := append([]string{}, ListNames...)
	names = append(names, "(no anti-adblock list)")
	for _, name := range names {
		counts, ok := r.Outcomes[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-26s", name)
		for _, o := range outcomes {
			fmt.Fprintf(&b, " %16d", counts[o])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
