// Package experiments implements one runner per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index). A Lab
// bundles the synthetic world and the generated filter-list histories;
// each runner returns a typed result plus a text rendering that mirrors
// the paper's rows/series.
package experiments

import (
	"time"

	"adwars/internal/abp"
	"adwars/internal/listgen"
	"adwars/internal/simworld"
	"adwars/internal/stats"
)

// Lab holds the world and lists every experiment runs against.
type Lab struct {
	World *simworld.World
	Lists *listgen.Lists
	Seed  int64
}

// NewLab builds a lab from a world configuration. Use
// simworld.DefaultConfig for paper scale or simworld.Scaled for faster
// runs (counts scale down proportionally).
func NewLab(cfg simworld.Config) *Lab {
	w := simworld.New(cfg)
	return &Lab{World: w, Lists: listgen.Generate(w, cfg.Seed), Seed: cfg.Seed}
}

// Scale is the lab's size relative to the paper (1.0 = full top-100K
// universe).
func (l *Lab) Scale() float64 {
	return float64(l.World.Cfg.UniverseSize) / 100_000
}

// RetroMonths returns the monthly crawl schedule, Aug 2011 – Jul 2016,
// sampled at the given stride (1 = every month like the paper).
func (l *Lab) RetroMonths(stride int) []time.Time {
	if stride < 1 {
		stride = 1
	}
	all := stats.MonthsBetween(l.World.Cfg.Start, l.World.Cfg.End)
	var out []time.Time
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	// Always include the final month; the paper's headline numbers are
	// at Jul 2016.
	if len(out) == 0 || !out[len(out)-1].Equal(all[len(all)-1]) {
		out = append(out, all[len(all)-1])
	}
	return out
}

// histories returns the two lists §4 compares, by display name.
func (l *Lab) histories() map[string]*abp.History {
	return map[string]*abp.History{
		"Anti-Adblock Killer": l.Lists.AAK,
		"Combined EasyList":   l.Lists.Combined,
	}
}

// listVersion is a filter list as it stood at one time: its compiled rules
// and its element hiding index. Both are nil before the list existed.
type listVersion struct {
	http *abp.List
	hide *abp.Hiding
}

// listsAt returns the list versions in force at time t, keyed by display
// name. Both halves come from each history's per-revision cache, so the
// 60-month replay builds each revision once no matter how many months or
// shards consult it.
func (l *Lab) listsAt(t time.Time) map[string]listVersion {
	out := make(map[string]listVersion, 2)
	for name, h := range l.histories() {
		out[name] = listVersion{h.ListAt(t), h.HidingAt(t)}
	}
	return out
}

// ListNames orders the two list names as the paper's figures do.
var ListNames = []string{"Combined EasyList", "Anti-Adblock Killer"}
