package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/browser"
	"adwars/internal/crawler"
	"adwars/internal/simworld"
	"adwars/internal/stats"
	"adwars/internal/wayback"
)

// replayLab is a small dedicated lab so the determinism tests can crawl
// once and replay many times without disturbing the shared test lab.
func replayLab(t *testing.T) (*Lab, *ReplayRun) {
	t.Helper()
	l := NewLab(simworld.Scaled(7, 40))
	run, err := l.PrepareReplay(context.Background(), RetroConfig{
		Months: l.RetroMonths(6),
	})
	if err != nil {
		t.Fatalf("PrepareReplay: %v", err)
	}
	return l, run
}

// setProcs runs the rest of the test at GOMAXPROCS n and restores the
// previous value when it ends. A test that calls it must not be parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestReplayShardDeterminism is the acceptance gate for the fanned-out
// replay: on one core and on several it must render byte-identical Figure
// 5/6 output and identical downstream accounting — scheduling changes
// wall-clock, never results. (TestIndexedAgreesWithLinearOverHistories
// below holds the automaton these replays match through to the linear
// scan.)
func TestReplayShardDeterminism(t *testing.T) {
	_, run := replayLab(t)
	setProcs(t, 1)
	seq := run.Replay()
	setProcs(t, 3)
	par := run.Replay()

	if got, want := par.RenderFig5(), seq.RenderFig5(); got != want {
		t.Errorf("GOMAXPROCS 3: Figure 5 diverged\n--- sequential\n%s--- got\n%s", want, got)
	}
	if got, want := par.RenderFig6(), seq.RenderFig6(); got != want {
		t.Errorf("GOMAXPROCS 3: Figure 6 diverged\n--- sequential\n%s--- got\n%s", want, got)
	}
	if got, want := len(par.CorpusPos), len(seq.CorpusPos); got != want {
		t.Errorf("GOMAXPROCS 3: CorpusPos %d, want %d", got, want)
	}
	if got, want := len(par.CorpusNeg), len(seq.CorpusNeg); got != want {
		t.Errorf("GOMAXPROCS 3: CorpusNeg %d, want %d", got, want)
	}
	for _, name := range ListNames {
		if got, want := par.ThirdPartyMatched[name], seq.ThirdPartyMatched[name]; got != want {
			t.Errorf("GOMAXPROCS 3: ThirdPartyMatched[%s] = %d, want %d", name, got, want)
		}
		if got, want := len(par.FirstMatch[name]), len(seq.FirstMatch[name]); got != want {
			t.Errorf("GOMAXPROCS 3: FirstMatch[%s] has %d sites, want %d", name, got, want)
		}
		for site, when := range seq.FirstMatch[name] {
			if !par.FirstMatch[name][site].Equal(when) {
				t.Errorf("GOMAXPROCS 3: FirstMatch[%s][%s] = %v, want %v",
					name, site, par.FirstMatch[name][site], when)
			}
		}
	}
	// The corpus order feeds §5's dataset split; it must match exactly,
	// not just in size.
	for i := range seq.CorpusPos {
		if par.CorpusPos[i] != seq.CorpusPos[i] {
			t.Fatalf("8 shards: CorpusPos[%d] differs", i)
		}
	}
}

// TestReplayViewsMatchParse: PrepareReplay keeps a domain's DOM views only
// while its snapshot HTML is byte-equal to the last month's, so every
// site-month's views equal a fresh parse of its own HTML, and some are
// reused while others are reparsed. Every prepared request is its HAR
// entry as the page issued it: the URL with the archive's prefix cut, the
// type the crawl recorded, the site as page domain.
func TestReplayViewsMatchParse(t *testing.T) {
	_, run := replayLab(t)
	last := map[string]string{}
	reused, parsed, truncated := 0, 0, 0
	types := map[abp.RequestType]bool{}
	for mi, mr := range run.months {
		for i, sr := range mr.Results {
			if sr.Status != crawler.StatusOK {
				continue
			}
			in := run.inputs[mi][i]
			entries := sr.Snapshot.HAR.Entries
			if len(in.reqs) != len(entries) {
				t.Fatalf("%s %s: %d requests for %d HAR entries", stats.MonthLabel(mr.Month), sr.Domain, len(in.reqs), len(entries))
			}
			for j, e := range entries {
				want := abp.Request{URL: wayback.TruncateURL(e.Request.URL), Type: abp.RequestType(e.Request.ResourceType), PageDomain: sr.Domain}
				if in.reqs[j] != want {
					t.Fatalf("%s %s: request %d = %+v, want %+v", stats.MonthLabel(mr.Month), sr.Domain, j, in.reqs[j], want)
				}
				if want.URL != e.Request.URL {
					truncated++
				}
				types[want.Type] = true
			}
			html := sr.Snapshot.HTML
			if !reflect.DeepEqual(in.views, browser.DOMViews(html)) {
				t.Fatalf("%s %s: views differ from a parse of the snapshot HTML", stats.MonthLabel(mr.Month), sr.Domain)
			}
			if last[sr.Domain] == html {
				reused++
			} else {
				parsed++
			}
			last[sr.Domain] = html
		}
	}
	if reused == 0 || parsed == 0 {
		t.Fatalf("reused %d, parsed %d: want both", reused, parsed)
	}
	if truncated == 0 || !types[abp.TypeScript] || !types[abp.TypeImage] {
		t.Fatalf("%d archive URLs truncated, types %v: want rewritten URLs and several types", truncated, types)
	}
}

// TestReplayMatchesCarriedType: the replay matches a request with the type
// the crawl recorded for it, as an adblocker does, and not one guessed from
// its URL: an extensionless loader typed script is blocked by a $script
// rule, the same URL typed image is not.
func TestReplayMatchesCarriedType(t *testing.T) {
	r, err := abp.Parse("||vendor.example^$script")
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string]*abp.List{"L": abp.NewList("L", []*abp.Rule{r})}
	const u = "http://vendor.example/loader"
	for typ, want := range map[abp.RequestType]bool{abp.TypeScript: true, abp.TypeImage: false} {
		in := siteInput{reqs: []abp.Request{{URL: u, Type: typ, PageDomain: "publisher.example"}}}
		if got := replaySite(lists, "publisher.example", in).blocked["L"][u]; got != want {
			t.Errorf("%s request to %s: blocked = %v, want %v", typ, u, got, want)
		}
	}
}

// TestLiveShardDeterminism repeats the guarantee for the §4.3 crawl and
// its matching, both crawler.Browsers wide.
func TestLiveShardDeterminism(t *testing.T) {
	l := NewLab(simworld.Scaled(7, 40))
	setProcs(t, 1)
	seq, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatalf("RunLive at GOMAXPROCS 1: %v", err)
	}
	setProcs(t, 3)
	par, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatalf("RunLive at GOMAXPROCS 3: %v", err)
	}
	if got, want := par.Render(), seq.Render(); got != want {
		t.Errorf("live coverage diverged with the core count\n--- GOMAXPROCS 1\n%s--- GOMAXPROCS 3\n%s", want, got)
	}
	if len(par.Scripts) != len(seq.Scripts) {
		t.Fatalf("live scripts: %d vs %d", len(par.Scripts), len(seq.Scripts))
	}
	for i := range seq.Scripts {
		if par.Scripts[i] != seq.Scripts[i] {
			t.Fatalf("live Scripts[%d] differs: %v vs %v", i, par.Scripts[i], seq.Scripts[i])
		}
	}
}

// TestIndexedAgreesWithLinearOverHistories is the differential test the
// index satellite asks for: over the generated AAK/CEL histories and URL
// populations drawn from real world pages, the indexed all-matches lookup
// must return exactly what the linear reference scan returns.
func TestIndexedAgreesWithLinearOverHistories(t *testing.T) {
	l, _ := lab(t)
	months := l.RetroMonths(12)
	domains := l.World.TopDomains(60)
	for _, month := range months {
		for name, h := range l.histories() {
			list := h.ListAt(month)
			if list == nil {
				continue
			}
			for _, d := range domains {
				page, ok := l.World.PageAt(d, month)
				if !ok {
					continue
				}
				for _, q := range page.Requests {
					got := list.AppendHits(nil, q)
					want := list.MatchingHTTPRulesLinear(q)
					if len(got) != len(want) {
						t.Fatalf("%s at %s: %q: indexed %d rules, linear %d",
							name, month.Format("2006-01"), q.URL, len(got), len(want))
					}
					for i := range got {
						if got[i].Rule != want[i] {
							t.Fatalf("%s at %s: %q: rule %d: %q vs %q",
								name, month.Format("2006-01"), q.URL, i, got[i].Rule.Raw, want[i].Raw)
						}
					}
				}
			}
		}
	}
}
