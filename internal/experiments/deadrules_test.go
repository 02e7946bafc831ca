package experiments

import (
	"strings"
	"testing"

	"adwars/internal/abp"
)

func TestDeadRules(t *testing.T) {
	l, _ := lab(t)
	res := l.DeadRules(0)
	if res.Sites == 0 || res.Requests == 0 {
		t.Fatalf("empty replay: %d sites, %d requests", res.Sites, res.Requests)
	}
	if len(res.Lists) != len(ListNames) {
		t.Fatalf("got %d lists, want %d", len(res.Lists), len(ListNames))
	}
	for _, dl := range res.Lists {
		if dl.HTTPRules == 0 {
			t.Errorf("%s: no HTTP rules", dl.Name)
		}
		if dl.FiredRules == 0 || dl.TotalHits == 0 {
			t.Errorf("%s: replay fired nothing (%d rules, %d hits)", dl.Name, dl.FiredRules, dl.TotalHits)
		}
		// The paper-motivating finding: the majority of rules never fire.
		if dl.DeadFraction <= 0.5 || dl.DeadFraction >= 1 {
			t.Errorf("%s: dead fraction %.3f outside (0.5, 1)", dl.Name, dl.DeadFraction)
		}
		// The fired rules alone compile to a smaller automaton.
		if dl.HotBytes >= dl.FlatBytes {
			t.Errorf("%s: pruned automaton %d B not below the whole list's %d B", dl.Name, dl.HotBytes, dl.FlatBytes)
		}
	}
	render := res.Render()
	if !strings.Contains(render, "Dead rules") || !strings.Contains(render, res.Lists[0].Name) {
		t.Errorf("render missing headline or list name:\n%s", render)
	}
}

// TestDeadRulesTieredTransparent replays the experiment traffic through
// the pruned list the exhibit sizes (hot-bytes: NewList over the rules that
// won a verdict) and demands the whole list's verdict and winning rule for
// every request — the replay-level half of TestUsageLoopCoverage.
func TestDeadRulesTieredTransparent(t *testing.T) {
	l, _ := lab(t)
	for _, name := range ListNames {
		latest := l.histories()[name].LatestList()
		plain := abp.NewList(name, latest.Rules())
		plain.EnableUsage()

		type verdict struct {
			dec  abp.Decision
			rule string
		}
		replay := func(list *abp.List) []verdict {
			var out []verdict
			var hits []abp.Hit
			for _, d := range l.World.TopDomains(200) {
				page, ok := l.World.LivePage(d)
				if !ok {
					continue
				}
				for _, rq := range page.Requests {
					hits = list.AppendHits(hits[:0], rq)
					dec, r, ord := abp.DecideHits(hits)
					list.RecordUsage(ord)
					v := verdict{dec: dec}
					if r != nil {
						v.rule = r.Raw
					}
					out = append(out, v)
				}
			}
			return out
		}

		want := replay(plain)
		_, fired := plain.UsageProfile()
		var kept []*abp.Rule
		for _, p := range fired {
			kept = append(kept, plain.Rules()[p[0]])
		}
		got := replay(abp.NewList(name, kept))
		if len(got) != len(want) || len(kept) == 0 {
			t.Fatalf("%s: %d verdicts from %d rules, want %d", name, len(got), len(kept), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}
