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
		// Compacting around the fired rules must shrink the hot working set.
		if dl.HotBytes >= dl.FlatBytes {
			t.Errorf("%s: hot working set %d B not below flat %d B", dl.Name, dl.HotBytes, dl.FlatBytes)
		}
	}
	render := res.Render()
	if !strings.Contains(render, "Dead rules") || !strings.Contains(render, res.Lists[0].Name) {
		t.Errorf("render missing headline or list name:\n%s", render)
	}
}

// TestDeadRulesTieredTransparent replays the experiment traffic through a
// usage-compacted tiered list and demands verdict-identical answers to the
// untiered list — the replay-level half of the tiering differential.
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
		counts := plain.Usage().Counts()
		hot := plain.CompileTiered(func(ord int) bool { return counts[ord] > 0 })
		cold := plain.CompileTiered(nil)
		for label, tiered := range map[string]*abp.List{"usage-hot": hot, "all-cold": cold} {
			got := replay(tiered)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d verdicts, want %d", name, label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: verdict %d = %+v, want %+v", name, label, i, got[i], want[i])
				}
			}
		}
	}
}
