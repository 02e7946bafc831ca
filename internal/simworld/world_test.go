package simworld

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adwars/internal/jsast"
	"adwars/internal/stats"
	"adwars/internal/web"
)

// testWorld is a 1/20-scale world (top-5K universe) shared by tests.
func testWorld(t *testing.T) *World {
	t.Helper()
	return New(Scaled(1, 20))
}

// adoptionFrac reads adoptionCurve forward: the fraction of eventual
// adopters live at t. The tests hold adoptionTime to it as its inverse.
func adoptionFrac(t time.Time) float64 {
	if !t.After(adoptionCurve[0].t) {
		return 0
	}
	for i := 1; i < len(adoptionCurve); i++ {
		if !t.After(adoptionCurve[i].t) {
			a, b := adoptionCurve[i-1], adoptionCurve[i]
			span := b.t.Sub(a.t)
			frac := float64(t.Sub(a.t)) / float64(span)
			return a.f + (b.f-a.f)*frac
		}
	}
	return 1
}

func TestWorldDeterministic(t *testing.T) {
	w1 := New(Scaled(5, 50))
	w2 := New(Scaled(5, 50))
	d1, d2 := w1.Deployments(), w2.Deployments()
	if len(d1) != len(d2) || len(d1) == 0 {
		t.Fatalf("deployments = %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].SiteDomain != d2[i].SiteDomain || !d1[i].Start.Equal(d2[i].Start) ||
			d1[i].Vendor.Name != d2[i].Vendor.Name {
			t.Fatalf("deployment %d differs", i)
		}
	}
}

func TestAdoptionCurveMonotone(t *testing.T) {
	prev := -1.0
	for _, p := range adoptionCurve {
		f := adoptionFrac(p.t)
		if f < prev {
			t.Fatalf("adoptionFrac not monotone at %v", p.t)
		}
		prev = f
	}
	if adoptionFrac(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)) != 0 {
		t.Error("pre-2011 adoption must be 0")
	}
	if adoptionFrac(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)) != 1 {
		t.Error("post-2017 adoption must be 1")
	}
}

func TestAdoptionTimeInvertsFrac(t *testing.T) {
	for _, q := range []float64{0.05, 0.2, 0.5, 0.8, 0.99} {
		ti := adoptionTime(q)
		f := adoptionFrac(ti)
		if f < q-0.02 || f > q+0.02 {
			t.Errorf("adoptionFrac(adoptionTime(%v)) = %v", q, f)
		}
	}
}

func TestTopFiveKAdoptionRate(t *testing.T) {
	w := New(DefaultConfig(3))
	top := map[string]bool{}
	for _, d := range w.TopDomains(5000) {
		top[d] = true
	}
	end := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	live := w.Cfg.LiveDate
	atEnd, atLive := 0, 0
	for _, d := range w.Deployments() {
		if !top[d.SiteDomain] {
			continue
		}
		if d.ActiveAt(end) {
			atEnd++
		}
		if d.ActiveAt(live) {
			atLive++
		}
	}
	// The paper: AAK triggers on 8.7% of the top-5K (≈435); deployment
	// must be in that neighborhood by Jul 2016 and higher by Apr 2017.
	if atEnd < 300 || atEnd > 620 {
		t.Errorf("top-5K deployments at 2016-07 = %d, want ~350-550", atEnd)
	}
	if atLive <= atEnd {
		t.Errorf("adoption must keep growing: %d → %d", atEnd, atLive)
	}
}

func TestTop100KAdoptionRate(t *testing.T) {
	w := New(DefaultConfig(3))
	live := w.Cfg.LiveDate
	n := 0
	for _, d := range w.Deployments() {
		r := w.RankOf(d.SiteDomain)
		if r >= 1 && r <= 100_000 && d.ActiveAt(live) {
			n++
		}
	}
	// §4.3/§5: ~5,070 detected anti-adblocking sites in the top-100K.
	if n < 4000 || n > 7000 {
		t.Errorf("top-100K deployments at live date = %d, want ~5,000", n)
	}
}

func TestTailDeploymentsBucketed(t *testing.T) {
	w := testWorld(t)
	mid, deep := 0, 0
	for _, d := range w.Deployments() {
		r := w.RankOf(d.SiteDomain)
		switch {
		case strings.HasPrefix(d.SiteDomain, "midtail"):
			mid++
			if r <= 100_000 || r > 1_000_000 {
				t.Fatalf("midtail rank %d out of bucket", r)
			}
		case strings.HasPrefix(d.SiteDomain, "deeptail"):
			deep++
			if r <= 1_000_000 {
				t.Fatalf("deeptail rank %d out of bucket", r)
			}
		}
	}
	if mid == 0 || deep == 0 {
		t.Fatal("tail deployments missing")
	}
}

func TestDeploymentStartsRespectVendorAvailability(t *testing.T) {
	w := testWorld(t)
	for _, d := range w.Deployments() {
		if d.Start.Before(d.Vendor.Available) {
			t.Fatalf("%s deploys %s before vendor %s exists (%s)",
				d.SiteDomain, d.Start, d.Vendor.Name, d.Vendor.Available)
		}
	}
}

func TestPageAtStability(t *testing.T) {
	w := testWorld(t)
	domain := w.TopDomains(10)[0]
	t1 := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	p1, ok := w.PageAt(domain, t1)
	if !ok {
		t.Fatal("top domain must have a page")
	}
	p2, _ := w.PageAt(domain, t1.AddDate(0, 1, 0)) // same content epoch (year)
	if len(p1.Requests) != len(p2.Requests) {
		t.Error("content changed within an epoch")
	}
	if _, ok := w.PageAt("not-in-universe.example", t1); ok {
		t.Error("unknown domain should have no page")
	}
}

func TestDeployedPageCarriesAntiAdblock(t *testing.T) {
	w := testWorld(t)
	var tested int
	for _, d := range w.Deployments() {
		if w.Universe.Rank(d.SiteDomain) == 0 {
			continue // tail domains have no pages
		}
		after := d.Start.AddDate(0, 2, 0)
		p, ok := w.PageAt(d.SiteDomain, after)
		if !ok {
			t.Fatalf("deployed site %s has no page", d.SiteDomain)
		}
		foundScript := false
		for _, s := range p.Scripts {
			if s.AntiAdblock {
				foundScript = true
				if _, _, err := jsast.ParseAndUnpack(s.Source); err != nil {
					t.Fatalf("anti-adblock script unparseable on %s: %v", d.SiteDomain, err)
				}
			}
		}
		if !foundScript {
			t.Fatalf("deployed site %s page lacks anti-adblock script", d.SiteDomain)
		}
		// Before deployment: clean page.
		before := d.Start.AddDate(0, -2, 0)
		if before.After(w.Cfg.Start) {
			pb, _ := w.PageAt(d.SiteDomain, before)
			for _, s := range pb.Scripts {
				if s.AntiAdblock {
					t.Fatalf("%s has anti-adblock before deployment start", d.SiteDomain)
				}
			}
		}
		tested++
		if tested >= 25 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no universe deployments to test")
	}
}

func TestStaticNoticeFraction(t *testing.T) {
	w := testWorld(t)
	at := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	static, total := 0, 0
	for _, d := range w.Deployments() {
		if w.Universe.Rank(d.SiteDomain) == 0 || !d.ActiveAt(at) {
			continue
		}
		p, _ := w.PageAt(d.SiteDomain, at)
		total++
		if slices.ContainsFunc(p.Elements(), func(e *web.Element) bool { return e.ID == d.NoticeID }) {
			static++
		}
	}
	if total < 20 {
		t.Skip("too few active deployments in scaled world")
	}
	frac := float64(static) / float64(total)
	if frac < 0.02 || frac > 0.30 {
		t.Errorf("static notice fraction = %.2f, want ≈ %.2f",
			frac, staticNoticeFraction)
	}
}

func TestLivePageUnreachableFraction(t *testing.T) {
	w := testWorld(t)
	unreachable := 0
	domains := w.TopDomains(w.Cfg.UniverseSize)
	for _, d := range domains {
		if _, ok := w.LivePage(d); !ok {
			unreachable++
		}
	}
	frac := float64(unreachable) / float64(len(domains))
	if frac > 0.03 {
		t.Errorf("unreachable fraction = %.3f, want ≈ 0.006", frac)
	}
}

func TestBenignSitesStayBenign(t *testing.T) {
	w := testWorld(t)
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	checked := 0
	for _, d := range w.NonDeployedDomains(40) {
		p, ok := w.PageAt(d, at)
		if !ok {
			continue
		}
		for _, s := range p.Scripts {
			if s.AntiAdblock {
				t.Fatalf("non-deployed site %s carries anti-adblock", d)
			}
			if _, _, err := jsast.ParseAndUnpack(s.Source); err != nil {
				t.Fatalf("benign script unparseable on %s: %v", d, err)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no benign sites checked")
	}
}

func TestCategoryOfCoversTail(t *testing.T) {
	w := testWorld(t)
	if w.CategoryOf("midtail0001.com").String() == "" {
		t.Error("tail category missing")
	}
	top := w.TopDomains(1)[0]
	s, _ := w.Universe.Site(top)
	if w.CategoryOf(top) != s.Category {
		t.Error("universe category mismatch")
	}
}

// TestConcurrentPageAt pins the documented guarantee that a built World is
// read-only: crawler workers and replay shards call PageAt/LivePage on the
// same World concurrently, and every worker must see the sequential
// baseline exactly. Run under `go test -race`.
func TestConcurrentPageAt(t *testing.T) {
	w := New(Scaled(9, 50))
	domains := w.TopDomains(40)
	when := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)

	type key struct {
		domain string
		urls   int
		elems  int
	}
	baseline := make([]key, len(domains))
	for i, d := range domains {
		p, ok := w.PageAt(d, when)
		if !ok {
			t.Fatalf("PageAt(%s) missing", d)
		}
		baseline[i] = key{d, len(p.Requests), len(p.Elements())}
	}

	done := make(chan error, 8)
	for worker := 0; worker < 8; worker++ {
		go func() {
			for i, d := range domains {
				p, ok := w.PageAt(d, when)
				if !ok {
					done <- fmt.Errorf("PageAt(%s) missing under concurrency", d)
					return
				}
				got := key{d, len(p.Requests), len(p.Elements())}
				if got != baseline[i] {
					done <- fmt.Errorf("PageAt(%s) = %+v, want %+v", d, got, baseline[i])
					return
				}
				w.LivePage(d)
				w.RankOf(d)
			}
			done <- nil
		}()
	}
	for worker := 0; worker < 8; worker++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPageAtMatchesFreshBuild holds PageAt's memo to the pages the parent
// built on every call: over every top domain and every retro month (on the
// 1st and mid-month, where deployments start), the memoized page renders,
// requests and scripts exactly as an uncached build keyed the old way. A
// month with the same content year and deployment state returns the same
// pointer; a new year or a deployment start returns a new page; LivePage
// never returns a memoized page.
func TestPageAtMatchesFreshBuild(t *testing.T) {
	w := New(Scaled(1, 40))
	domains := w.TopDomains(5000 / 40)
	type last struct {
		epoch  int64
		active bool
		page   *web.Page
	}
	prev := map[string]last{}
	reused, newYear, deployed := 0, 0, 0
	for _, month := range stats.MonthsBetween(w.Cfg.Start, w.Cfg.End) {
		for _, at := range []time.Time{month, month.AddDate(0, 0, 14)} {
			for _, d := range domains {
				got, ok := w.PageAt(d, at)
				if !ok {
					t.Fatalf("PageAt(%s, %s) missing", d, at)
				}
				dep := w.DeploymentOf(d)
				key := last{int64(at.Year()), dep != nil && dep.ActiveAt(at), got}
				want := w.buildPage(d, at)
				if web.RenderHTML(got) != web.RenderHTML(want) ||
					!reflect.DeepEqual(got.Requests, want.Requests) ||
					!reflect.DeepEqual(got.Scripts, want.Scripts) {
					t.Fatalf("PageAt(%s, %s) differs from a fresh build", d, at.Format("2006-01-02"))
				}
				p, seen := prev[d]
				switch {
				case !seen:
				case p.epoch == key.epoch && p.active == key.active:
					if got != p.page {
						t.Fatalf("PageAt(%s, %s) rebuilt an unchanged page", d, at.Format("2006-01-02"))
					}
					reused++
				case got == p.page:
					t.Fatalf("PageAt(%s, %s) kept the page of another year or deployment state", d, at.Format("2006-01-02"))
				case p.epoch != key.epoch:
					newYear++
				default:
					deployed++
				}
				prev[d] = key
			}
		}
	}
	if reused == 0 || newYear == 0 || deployed == 0 {
		t.Fatalf("reused %d, new year %d, deployment started %d: want every case covered", reused, newYear, deployed)
	}
	for _, d := range domains[:20] {
		memo, _ := w.PageAt(d, w.Cfg.LiveDate)
		live, ok := w.LivePage(d)
		if !ok {
			continue
		}
		again, _ := w.LivePage(d)
		if live == memo || live == again {
			t.Fatalf("LivePage(%s) returned a shared page", d)
		}
		if web.RenderHTML(live) != web.RenderHTML(memo) {
			t.Fatalf("LivePage(%s) differs from PageAt at the live date", d)
		}
	}
}

// TestHash64MatchesFmt holds the world's draws to the bytes they were keyed
// by before stats.Hash64: FNV-1a of the formatted (salt, domain, epoch,
// seed) tuple, negative epochs and seeds and empty strings included.
func TestHash64MatchesFmt(t *testing.T) {
	for _, seed := range []int64{42, 0, -7} {
		w := &World{Cfg: Config{Seed: seed}}
		for _, c := range []struct {
			salt, domain string
			epoch        int64
		}{{"content", "example.com", 2014}, {"", "", 0}, {"aab", "", -1325376000}, {"", "x.org", -1}} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%s|%d|%d", c.salt, c.domain, c.epoch, seed)
			if got := w.hash64(c.salt, c.domain, c.epoch); got != h.Sum64() {
				t.Errorf("seed %d: hash64%+v = %x, want %x", seed, c, got, h.Sum64())
			}
		}
	}
}
