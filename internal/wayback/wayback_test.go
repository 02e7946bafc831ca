package wayback

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/web"
)

// stubSource serves a fixed page per domain.
type stubSource map[string]*web.Page

func (s stubSource) PageAt(domain string, t time.Time) (*web.Page, bool) {
	p, ok := s[domain]
	return p, ok
}

func testPage(domain string) *web.Page {
	p := web.NewPage(domain, domain)
	p.AddRequest("http://cdn."+domain+"/app.js", abp.TypeScript)
	p.AddRequest("http://img."+domain+"/a.png", abp.TypeImage)
	p.Scripts = append(p.Scripts, web.Script{
		URL: "http://cdn." + domain + "/app.js", Source: "var a = 1;",
	})
	return p
}

func testArchive(n int) (*Archive, []string) {
	domains := make([]string, n)
	src := stubSource{}
	for i := range domains {
		domains[i] = fmt.Sprintf("site%04d.com", i)
		src[domains[i]] = testPage(domains[i])
	}
	cfg := DefaultConfig(42)
	// Scale exclusions down for the small test population.
	cfg.Robots, cfg.Admin, cfg.Undefined = 15, 3, 5
	return New(src, domains, cfg), domains
}

func TestExclusionCounts(t *testing.T) {
	a, domains := testArchive(500)
	// Excluded domains must answer Excluded at every date.
	count := 0
	byReason := map[Exclusion]int{}
	for _, d := range domains {
		if e := a.ExclusionOf(d); e != ExclNone {
			byReason[e]++
			count++
			if _, avail := a.Available(d, time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)); avail != Excluded {
				t.Fatalf("excluded domain %s reported %v", d, avail)
			}
		}
	}
	if count != 23 {
		t.Fatalf("total excluded = %d", count)
	}
	if r, ad, u := byReason[ExclRobots], byReason[ExclAdmin], byReason[ExclUndefined]; r != 15 || ad != 3 || u != 5 {
		t.Fatalf("exclusions = %d/%d/%d", r, ad, u)
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	a, domains := testArchive(300)
	m := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, d := range domains[:50] {
		r1, s1 := a.Available(d, m)
		r2, s2 := a.Available(d, m)
		if s1 != s2 || r1 != r2 {
			t.Fatalf("availability not deterministic for %s", d)
		}
	}
}

func TestDefectRatesTrend(t *testing.T) {
	a, domains := testArchive(2000)
	count := func(m time.Time) (na, out int) {
		for _, d := range domains {
			_, s := a.Available(d, m)
			switch s {
			case NotArchived:
				na++
			case Outdated:
				out++
			}
		}
		return
	}
	naEarly, outEarly := count(time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC))
	naLate, outLate := count(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC))
	// Figure 5 trends: outdated decreases, not-archived increases.
	if outLate >= outEarly {
		t.Errorf("outdated should fall over time: %d → %d", outEarly, outLate)
	}
	if naLate <= naEarly {
		t.Errorf("not-archived should rise over time: %d → %d", naEarly, naLate)
	}
}

func TestFetchSnapshot(t *testing.T) {
	a, domains := testArchive(200)
	var snap *Snapshot
	m := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, d := range domains {
		ref, s := a.Available(d, m)
		if s == Archived && !ref.Partial {
			got, err := a.Fetch(ref)
			if err != nil {
				t.Fatal(err)
			}
			snap = got
			break
		}
	}
	if snap == nil {
		t.Fatal("no archived snapshot found")
	}
	if !strings.Contains(snap.HTML, "<html") {
		t.Error("snapshot HTML missing document")
	}
	if len(snap.HAR.Entries) != 3 { // document + 2 subresources
		t.Fatalf("HAR entries = %d", len(snap.HAR.Entries))
	}
	// Non-escape URLs must be rewritten.
	rewritten := 0
	for _, u := range snap.HAR.URLs() {
		if strings.HasPrefix(u, "http://web.archive.org/web/") {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Error("no URLs rewritten with archive prefix")
	}
	// Script bodies must be preserved for corpus building.
	foundBody := false
	for _, e := range snap.HAR.Entries {
		if strings.Contains(e.Response.Content.Text, "var a = 1;") {
			foundBody = true
		}
	}
	if !foundBody {
		t.Error("script body lost in HAR")
	}
}

func TestFetchPartialSnapshot(t *testing.T) {
	a, domains := testArchive(3000)
	found := false
	for _, m := range []time.Time{
		time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC),
	} {
		for _, d := range domains {
			ref, s := a.Available(d, m)
			if s == Archived && ref.Partial {
				snap, err := a.Fetch(ref)
				if err != nil {
					t.Fatal(err)
				}
				if len(snap.HAR.Entries) > 2 {
					t.Fatalf("partial snapshot kept %d entries", len(snap.HAR.Entries))
				}
				if !strings.Contains(snap.HTML, "403") {
					t.Error("partial snapshot should show the anti-bot error page")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no partial snapshot in sample (rates are small)")
	}
}

func TestFetchUnknownDomain(t *testing.T) {
	a, _ := testArchive(10)
	_, err := a.Fetch(SnapshotRef{Domain: "nowhere.test", Timestamp: time.Now()})
	if err == nil {
		t.Fatal("fetch of unknown domain must error")
	}
}

func TestRewriteTruncateRoundTrip(t *testing.T) {
	ts := time.Date(2015, 3, 14, 9, 26, 53, 0, time.UTC)
	orig := "http://pagefair.com/static/adblock_detection/js/d.min.js"
	rw := RewriteURL(ts, orig)
	if !strings.HasPrefix(rw, "http://web.archive.org/web/20150314092653/") {
		t.Fatalf("rewritten = %q", rw)
	}
	if got := TruncateURL(rw); got != orig {
		t.Fatalf("truncated = %q, want %q", got, orig)
	}
	// Escape URLs and live URLs pass through.
	if got := TruncateURL(orig); got != orig {
		t.Fatalf("live URL modified: %q", got)
	}
	if got := TruncateURL("http://web.archive.org/web/nodigits"); got != "http://web.archive.org/web/nodigits" {
		t.Fatalf("malformed archive URL modified: %q", got)
	}
}

func TestAvailabilityStrings(t *testing.T) {
	if Archived.String() != "archived" || NotArchived.String() != "not-archived" ||
		Outdated.String() != "outdated" || Excluded.String() != "excluded" {
		t.Error("availability names wrong")
	}
	if ExclRobots.String() != "robots.txt" || ExclNone.String() != "none" {
		t.Error("exclusion names wrong")
	}
}
