package browser

import (
	"math/rand"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/antiadblock"
	"adwars/internal/har"
	"adwars/internal/wayback"
	"adwars/internal/web"
)

func buildList(t *testing.T, lines ...string) *abp.List {
	t.Helper()
	var rules []*abp.Rule
	for _, l := range lines {
		r, err := abp.Parse(l)
		if err != nil {
			t.Fatalf("Parse(%q): %v", l, err)
		}
		rules = append(rules, r)
	}
	return abp.NewList("test", rules)
}

func antiAdblockPage(t *testing.T) (*web.Page, *antiadblock.Deployment) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	v := antiadblock.VendorByName("PageFair")
	d := antiadblock.NewDeployment("dailynews.com", v,
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), rng)
	p := web.NewPage("dailynews.com", "Daily News")
	p.AddRequest("http://img.dailynews.com/logo.png", abp.TypeImage)
	d.Apply(p, rng, antiadblock.GenOptions{})
	return p, d
}

func TestOpenArchivedHTML(t *testing.T) {
	html := `<html><body>
<div id="noticeMain" class="adblock-wall">disable your adblocker</div>
<div id="content">hello</div>
</body></html>`
	hiding := abp.NewHiding(buildList(t, "dailynews.com###noticeMain"))
	views := DOMViews(html)
	hidden := hiding.HiddenElements("dailynews.com", views)
	if len(hidden) != 1 {
		t.Fatalf("hidden = %+v", hidden)
	}
	for i := range hidden {
		if views[i].ID != "noticeMain" {
			t.Fatalf("hid element %q, want noticeMain", views[i].ID)
		}
	}
	// Domain-scoped rule must not fire elsewhere.
	if got := hiding.HiddenElements("other.com", views); len(got) != 0 {
		t.Fatalf("rule fired off-domain: %+v", got)
	}
	// Broken HTML must not panic.
	if got := DOMViews(""); got != nil {
		t.Fatalf("empty HTML produced views: %+v", got)
	}
}

func TestReplayLivePage(t *testing.T) {
	page, d := antiAdblockPage(t)
	list := buildList(t,
		"||pagefair.com^$third-party",
		"dailynews.com###"+d.NoticeID,
	)
	hiding := abp.NewHiding(list)
	// A live page's requests need no truncation and carry their type and
	// page domain; its DOM is available directly.
	replay := func(p *web.Page) (http, hidden int) {
		for _, q := range p.Requests {
			if dec, _ := list.MatchRequest(q); dec != abp.NoMatch {
				http++
			}
		}
		return http, len(hiding.HiddenElements(p.Domain, PageViews(p)))
	}
	if http, hidden := replay(page); http == 0 || hidden == 0 {
		t.Errorf("anti-adblock page: %d HTTP triggers, %d hidden elements; want both > 0", http, hidden)
	}
	benign := web.NewPage("benign.com", "B")
	benign.AddRequest("http://benign.com/app.js", abp.TypeScript)
	if http, hidden := replay(benign); http != 0 || hidden != 0 {
		t.Errorf("benign page triggered: %d HTTP, %d HTML", http, hidden)
	}
}

func TestReplaySnapshotTruncatesWaybackURLs(t *testing.T) {
	page, d := antiAdblockPage(t)
	ts := time.Date(2015, 6, 15, 0, 0, 0, 0, time.UTC)

	// Build a snapshot by hand with rewritten URLs, as the archive serves
	// them.
	l := buildList(t, "||pagefair.com^$third-party", "dailynews.com###"+d.NoticeID)
	harLog := newHARWithURLs(ts, page)
	snap := &wayback.Snapshot{
		Ref:  wayback.SnapshotRef{Domain: "dailynews.com", Timestamp: ts},
		HTML: web.RenderHTML(page),
		HAR:  harLog,
		Page: page,
	}
	blocked := 0
	for _, e := range snap.HAR.Entries {
		q := abp.Request{URL: wayback.TruncateURL(e.Request.URL), Type: abp.RequestType(e.Request.ResourceType), PageDomain: snap.Ref.Domain}
		if dec, _ := l.MatchRequest(q); dec == abp.Blocked {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("rewritten vendor URL should match after truncation")
	}
	if len(abp.NewHiding(l).HiddenElements(snap.Ref.Domain, DOMViews(snap.HTML))) == 0 {
		t.Fatal("archived notice should trigger the HTML rule")
	}
}

func newHARWithURLs(ts time.Time, page *web.Page) *har.Log {
	l := har.New("test")
	pid := l.AddPage(page.URL(), ts)
	for _, q := range page.Requests {
		l.AddEntry(pid, wayback.RewriteURL(ts, q.URL), q.Type, 200, "", ts)
	}
	return l
}
