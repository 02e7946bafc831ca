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

func TestMatchHTTPURLs(t *testing.T) {
	list := buildList(t, "||pagefair.com^$third-party")
	triggers := MatchHTTPURLs(list, []string{
		"http://pagefair.com/static/adblock_detection/js/d.min.js",
		"http://img.dailynews.com/logo.png",
	}, "dailynews.com")
	if len(triggers) != 1 {
		t.Fatalf("triggers = %d, want 1", len(triggers))
	}
	if triggers[0].Decision != abp.Blocked {
		t.Fatalf("decision = %v", triggers[0].Decision)
	}
}

func TestGuessType(t *testing.T) {
	cases := map[string]abp.RequestType{
		"http://x.com/a.js":          abp.TypeScript,
		"http://x.com/a.js?v=2":      abp.TypeScript,
		"http://x.com/style.css":     abp.TypeStylesheet,
		"http://x.com/logo.PNG":      abp.TypeImage,
		"http://x.com/":              abp.TypeDocument,
		"http://x.com/page.html":     abp.TypeDocument,
		"http://x.com/api/data?x=1":  abp.TypeOther,
		"http://x.com/pic.jpeg#frag": abp.TypeImage,
	}
	for u, want := range cases {
		if got := guessType(u); got != want {
			t.Errorf("guessType(%q) = %v, want %v", u, got, want)
		}
	}
}

func TestOpenArchivedHTML(t *testing.T) {
	html := `<html><body>
<div id="noticeMain" class="adblock-wall">disable your adblocker</div>
<div id="content">hello</div>
</body></html>`
	list := buildList(t, "dailynews.com###noticeMain")
	triggers := OpenArchivedHTML(list, html, "dailynews.com")
	if len(triggers) != 1 || triggers[0].ElementID != "noticeMain" {
		t.Fatalf("triggers = %+v", triggers)
	}
	// Domain-scoped rule must not fire elsewhere.
	if got := OpenArchivedHTML(list, html, "other.com"); len(got) != 0 {
		t.Fatalf("rule fired off-domain: %+v", got)
	}
	// Broken HTML must not panic.
	if got := OpenArchivedHTML(list, "", "dailynews.com"); got != nil {
		t.Fatalf("empty HTML produced triggers: %+v", got)
	}
}

func TestReplayLivePage(t *testing.T) {
	page, d := antiAdblockPage(t)
	list := buildList(t,
		"||pagefair.com^$third-party",
		"dailynews.com###"+d.NoticeID,
	)
	// A live page's request URLs need no truncation and its DOM is
	// available directly.
	replay := func(p *web.Page) (http []HTTPTrigger, hidden int) {
		urls := make([]string, 0, len(p.Requests))
		for _, q := range p.Requests {
			urls = append(urls, q.URL)
		}
		return MatchHTTPURLs(list, urls, p.Domain), len(list.HiddenElements(p.Domain, PageViews(p)))
	}
	if http, hidden := replay(page); len(http) == 0 || hidden == 0 {
		t.Errorf("anti-adblock page: %d HTTP triggers, %d hidden elements; want both > 0", len(http), hidden)
	}
	benign := web.NewPage("benign.com", "B")
	benign.AddRequest("http://benign.com/app.js", abp.TypeScript)
	if http, hidden := replay(benign); len(http) != 0 || hidden != 0 {
		t.Errorf("benign page triggered: %d HTTP, %d HTML", len(http), hidden)
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
	var urls []string
	for _, u := range snap.HAR.URLs() {
		urls = append(urls, wayback.TruncateURL(u))
	}
	if len(MatchHTTPURLs(l, urls, snap.Ref.Domain)) == 0 {
		t.Fatal("rewritten vendor URL should match after truncation")
	}
	if len(OpenArchivedHTML(l, snap.HTML, snap.Ref.Domain)) == 0 {
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
