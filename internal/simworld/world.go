// Package simworld builds the synthetic web the measurements run against:
// a ranked, categorized domain universe, a 2011–2017 anti-adblock adoption
// timeline calibrated to the paper's observations, and deterministic page
// content for every (domain, month) — the ground truth from which the
// Wayback crawl (§4.2), the live crawl (§4.3), the filter-list curation
// model (listgen), and the ML corpus (§5) all derive.
package simworld

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adwars/internal/abp"
	"adwars/internal/alexa"
	"adwars/internal/antiadblock"
	"adwars/internal/stats"
	"adwars/internal/web"
)

// Config parameterizes the world. DefaultConfig reproduces paper scale;
// tests use smaller universes via Scaled.
type Config struct {
	// Seed drives every deterministic draw.
	Seed int64
	// UniverseSize is the ranked domain population (the paper crawls the
	// top-5K retrospectively and the top-100K live).
	UniverseSize int
	// Tail100K1M and TailOver1M are extra adopting domains in the
	// 100K-1M and >1M rank buckets. They are never crawled but filter
	// lists target them (Table 1 shows most listed domains live there).
	Tail100K1M, TailOver1M int
	// Start and End bound the retrospective window.
	Start, End time.Time
	// LiveDate is when the live crawl runs (Apr 2017 in the paper).
	LiveDate time.Time
}

// The world's calibration, the same at every scale.
const (
	// baseAdoption is the final (by LiveDate) adoption probability for a
	// rank-1..5K site of an average category; deeper ranks adopt less.
	baseAdoption = 0.10
	// staticNoticeFraction is how many deployments keep their warning
	// overlay in static HTML, ~1 in 9 (most inject it dynamically, which is
	// why the paper's Figure 6(b) HTML-rule counts stay near zero).
	staticNoticeFraction = 0.11
	// unreachableFraction of live-crawl sites fail to load (the paper's
	// live crawl reached all but ≈0.6 % of its top-100K).
	unreachableFraction = 0.006
	// packProbability is the chance a generated script wraps itself in an
	// eval packer.
	packProbability = 0.12
)

// DefaultConfig is paper scale: 100K ranked domains, Aug 2011 – Jul 2016
// retrospective window, Apr 2017 live crawl.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		UniverseSize: 100_000,
		Tail100K1M:   2_500,
		TailOver1M:   4_500,
		Start:        time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC),
		End:          time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC),
		LiveDate:     time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Scaled shrinks the world by factor k (k=10 → top-10K universe becomes
// top-1K, etc.) for tests; adoption rates are unchanged.
func Scaled(seed int64, k int) Config {
	cfg := DefaultConfig(seed)
	cfg.UniverseSize /= k
	cfg.Tail100K1M /= k
	cfg.TailOver1M /= k
	return cfg
}

// World is the generated synthetic web. Once New returns, a World is
// observably immutable: every accessor (PageAt, LivePage, TopDomains,
// RankOf, …) derives its answer from frozen state and per-call hashes, so a
// single World is safe for concurrent use by crawler workers and replay
// shards without locking. The one thing inside that changes is PageAt's
// memo: one slot per universe domain, allocated on the first PageAt and
// swapped atomically, holding the last page built and the (content year,
// deployment active) it was built for. Pages are never written after the
// build, so handing one out again is invisible to callers.
type World struct {
	Cfg      Config
	Universe *alexa.Universe

	deployments map[string]*antiadblock.Deployment
	deployOrder []string // sorted domains with deployments
	tailRanks   map[string]int

	memoOnce sync.Once
	memo     []atomic.Pointer[builtPage] // by rank-1
}

// builtPage is one memo slot: a page and the key it was built for.
type builtPage struct {
	epoch  int64
	active bool
	page   *web.Page
}

// categoryAdoption multiplies a site's adoption probability; streaming,
// news, and entertainment publishers retaliate against adblockers the most
// (Rafique et al.: 16.3% of free live-streaming sites).
var categoryAdoption = map[alexa.Category]float64{
	alexa.CatStreamingSharing: 2.3,
	alexa.CatIllegalSoftware:  2.0,
	alexa.CatGeneralNews:      1.7,
	alexa.CatEntertainment:    1.5,
	alexa.CatGames:            1.3,
	alexa.CatSports:           1.2,
	alexa.CatBlogsForums:      1.0,
	alexa.CatShareware:        1.0,
	alexa.CatPornography:      1.0,
	alexa.CatWebAds:           0.8,
	alexa.CatInternetServices: 0.6,
	alexa.CatBusiness:         0.5,
	alexa.CatMarketing:        0.7,
	alexa.CatPersonalStorage:  0.6,
	alexa.CatMaliciousSites:   0.9,
	alexa.CatOthers:           0.7,
}

// rankAdoption scales adoption by popularity: the paper measures ~8.7%
// coverage in the top-5K but ~5.0% across the top-100K.
func rankAdoption(rank int) float64 {
	switch {
	case rank <= 5_000:
		return 1.0
	case rank <= 20_000:
		return 0.55
	case rank <= 100_000:
		return 0.38
	case rank <= 1_000_000:
		return 0.30
	default:
		return 0.25
	}
}

// adoptionCurve is the cumulative adoption curve: the fraction of eventual
// adopters already live at each time, linear between the points.
// Anti-adblocking existed in 2011 but took off after 2014 (Figure 6a).
var adoptionCurve = []struct {
	t time.Time
	f float64
}{
	{time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), 0.00},
	{time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), 0.02},
	{time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 0.06},
	{time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), 0.13},
	{time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), 0.32},
	{time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), 0.60},
	{time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), 0.72},
	{time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC), 1.00},
}

// adoptionTime inverts the curve for a quantile q in (0,1].
func adoptionTime(q float64) time.Time {
	for i := 1; i < len(adoptionCurve); i++ {
		a, b := adoptionCurve[i-1], adoptionCurve[i]
		if q <= b.f {
			if b.f == a.f {
				return b.t
			}
			frac := (q - a.f) / (b.f - a.f)
			return a.t.Add(time.Duration(frac * float64(b.t.Sub(a.t))))
		}
	}
	return adoptionCurve[len(adoptionCurve)-1].t
}

// New generates the world: universe, tail, and the deployment timeline.
func New(cfg Config) *World {
	w := &World{
		Cfg:         cfg,
		Universe:    alexa.NewUniverse(cfg.UniverseSize, cfg.Seed),
		deployments: make(map[string]*antiadblock.Deployment),
		tailRanks:   make(map[string]int),
	}
	for _, s := range w.Universe.Top(cfg.UniverseSize) {
		w.maybeAdopt(s.Domain, w.effectiveRank(s.Rank), s.Category)
	}
	// Tail domains exist only to be deployed and listed.
	for i := 0; i < cfg.Tail100K1M; i++ {
		d := fmt.Sprintf("midtail%04d.com", i)
		rank := 100_001 + i*((1_000_000-100_001)/max(1, cfg.Tail100K1M))
		w.tailRanks[d] = rank
		w.adopt(d, rank)
	}
	for i := 0; i < cfg.TailOver1M; i++ {
		d := fmt.Sprintf("deeptail%04d.net", i)
		rank := 1_000_001 + i*100
		w.tailRanks[d] = rank
		w.adopt(d, rank)
	}
	w.deployOrder = make([]string, 0, len(w.deployments))
	for d := range w.deployments {
		w.deployOrder = append(w.deployOrder, d)
	}
	sort.Strings(w.deployOrder)
	return w
}

// maybeAdopt decides whether (and when) a universe site adopts
// anti-adblocking.
func (w *World) maybeAdopt(domain string, rank int, cat alexa.Category) {
	p := min(baseAdoption*rankAdoption(rank)*categoryAdoption[cat], 1)
	u := w.hashFloat("adopt", domain, 0)
	if u >= p {
		return
	}
	// The site's position in the adoption wave: a uniform quantile.
	q := w.hashFloat("when", domain, 0)
	w.addDeployment(domain, adoptionTime(q))
}

// adopt unconditionally deploys a tail domain.
func (w *World) adopt(domain string, rank int) {
	q := w.hashFloat("when", domain, 0)
	w.addDeployment(domain, adoptionTime(q))
}

func (w *World) addDeployment(domain string, start time.Time) {
	rng := w.rng("deploy", domain, 0)
	vendor := w.pickVendor(rng, start)
	if start.Before(vendor.Available) {
		start = vendor.Available
	}
	d := antiadblock.NewDeployment(domain, vendor, start, rng)
	w.deployments[domain] = d
}

// pickVendor draws a vendor by market share among those available at t
// (first-party "Custom" is always available as the fallback).
func (w *World) pickVendor(rng *rand.Rand, t time.Time) *antiadblock.Vendor {
	var avail []*antiadblock.Vendor
	total := 0.0
	for _, v := range antiadblock.Catalog {
		if !t.Before(v.Available) {
			avail = append(avail, v)
			total += v.Share
		}
	}
	if len(avail) == 0 {
		return antiadblock.VendorByName("Custom")
	}
	r := rng.Float64() * total
	acc := 0.0
	for _, v := range avail {
		acc += v.Share
		if r < acc {
			return v
		}
	}
	return avail[len(avail)-1]
}

// DeploymentOf returns the domain's deployment (nil when the site never
// adopts anti-adblocking).
func (w *World) DeploymentOf(domain string) *antiadblock.Deployment {
	return w.deployments[domain]
}

// Deployments returns every deployment, ordered by domain for determinism.
func (w *World) Deployments() []*antiadblock.Deployment {
	out := make([]*antiadblock.Deployment, 0, len(w.deployOrder))
	for _, d := range w.deployOrder {
		out = append(out, w.deployments[d])
	}
	return out
}

// effectiveRank maps a scaled universe's rank to its paper-scale
// equivalent: in a 1/20-scale world (5K domains), rank 250 stands for the
// real web's rank 5,000. At full scale this is the identity.
func (w *World) effectiveRank(rank int) int {
	if rank == 0 || w.Cfg.UniverseSize >= 100_000 {
		return rank
	}
	return rank * (100_000 / w.Cfg.UniverseSize)
}

// RankOf returns a domain's paper-scale rank, covering both universe and
// tail domains (0 for unknown domains, bucketed as >1M).
func (w *World) RankOf(domain string) int {
	if r := w.Universe.Rank(domain); r != 0 {
		return w.effectiveRank(r)
	}
	return w.tailRanks[domain]
}

// CategoryOf returns a domain's category; tail domains hash into one.
func (w *World) CategoryOf(domain string) alexa.Category {
	if s, ok := w.Universe.Site(domain); ok {
		return s.Category
	}
	cats := alexa.Categories()
	return cats[int(w.hash64("tailcat", domain, 0)%uint64(len(cats)))]
}

// TopDomains returns the domains of the top-n ranked sites.
func (w *World) TopDomains(n int) []string {
	sites := w.Universe.Top(n)
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Domain
	}
	return out
}

// NonDeployedDomains returns up to n universe domains without deployments,
// in rank order — the pool the curation model draws exception-rule (false
// positive fix) targets from.
func (w *World) NonDeployedDomains(n int) []string {
	var out []string
	for _, s := range w.Universe.Top(w.Cfg.UniverseSize) {
		if w.deployments[s.Domain] == nil {
			out = append(out, s.Domain)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// StaticNotice reports whether a deployed site keeps its warning overlay
// in static HTML (visible to archive crawls); most sites inject it
// dynamically on detection. The curation model uses this: list authors
// write HTML hide rules for notices they can see.
func (w *World) StaticNotice(domain string) bool {
	return w.hashFloat("static", domain, 0) < staticNoticeFraction
}

// contentEpoch changes a site's baseline content once a year — websites
// change content often but codebase rarely (§4.1).
func contentEpoch(t time.Time) int64 { return int64(t.Year()) }

// PageAt implements wayback.SiteSource: the domain's homepage at time t.
// A page depends only on t's content year and on whether the deployment is
// active, so it is built once per such key and memoized.
func (w *World) PageAt(domain string, t time.Time) (*web.Page, bool) {
	s, ok := w.Universe.Site(domain)
	if !ok {
		return nil, false
	}
	d := w.deployments[domain]
	key := builtPage{epoch: contentEpoch(t), active: d != nil && d.ActiveAt(t)}
	w.memoOnce.Do(func() { w.memo = make([]atomic.Pointer[builtPage], w.Universe.Len()) })
	slot := &w.memo[s.Rank-1]
	if b := slot.Load(); b != nil && b.epoch == key.epoch && b.active == key.active {
		return b.page, true
	}
	key.page = w.buildPage(domain, t)
	slot.Store(&key)
	return key.page, true
}

// LivePage implements crawler.LiveSource at the configured live-crawl
// date; a small fraction of sites is unreachable. It builds on every call.
func (w *World) LivePage(domain string) (*web.Page, bool) {
	if _, ok := w.Universe.Site(domain); !ok {
		return nil, false
	}
	if w.hashFloat("unreachable", domain, 0) < unreachableFraction {
		return nil, false
	}
	return w.buildPage(domain, w.Cfg.LiveDate), true
}

// buildPage deterministically renders a site at a time: baseline content
// plus, when a deployment is active, the anti-adblock machinery.
func (w *World) buildPage(domain string, t time.Time) *web.Page {
	rng := w.rng("content", domain, contentEpoch(t))
	p := web.NewPage(domain, domain)

	// Baseline: stylesheet, images, a couple of benign scripts (some
	// external, some inline), occasionally third-party analytics.
	p.AddRequest("http://"+domain+"/css/main.css", abp.TypeStylesheet)
	nImgs := 1 + rng.Intn(3)
	for i := 0; i < nImgs; i++ {
		p.AddRequest(fmt.Sprintf("http://img.%s/asset%d.png", domain, i), abp.TypeImage)
	}
	nScripts := 1 + rng.Intn(3)
	for i := 0; i < nScripts; i++ {
		src := antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{PackProbability: packProbability})
		if rng.Float64() < 0.6 {
			u := fmt.Sprintf("http://%s/js/lib%d.js", domain, i)
			p.AddRequest(u, abp.TypeScript)
			p.Scripts = append(p.Scripts, web.Script{URL: u, Source: src})
			tag := web.NewElement("script", "")
			tag.SetAttr("src", u)
			p.Head().Append(tag)
		} else {
			p.Scripts = append(p.Scripts, web.Script{Source: src})
			tag := web.NewElement("script", "")
			tag.Text = src
			p.Head().Append(tag)
		}
	}
	if rng.Float64() < 0.35 {
		p.AddRequest("http://stats.counterhub.net/collect.js", abp.TypeScript)
	}
	body := p.Body()
	content := web.NewElement("div", "content", "main")
	content.Text = "page content"
	body.Append(content)

	if d := w.deployments[domain]; d != nil && d.ActiveAt(t) {
		// Deployment randomness keyed to the deployment, not the month:
		// the anti-adblock integration stays stable once added.
		drng := w.rng("aab", domain, d.Start.Unix())
		applyDeployment(d, p, drng, antiadblock.GenOptions{PackProbability: packProbability}, w.StaticNotice(domain))
	}
	return p
}

// applyDeployment injects the anti-adblock machinery, optionally removing
// the static overlay again for dynamic-notice sites.
func applyDeployment(d *antiadblock.Deployment, p *web.Page, rng *rand.Rand, opt antiadblock.GenOptions, staticNotice bool) {
	d.Apply(p, rng, opt)
	if !staticNotice {
		// Dynamic-notice sites build the overlay in JS on detection; the
		// archived DOM does not contain it.
		body := p.Body()
		kept := body.Children[:0]
		for _, c := range body.Children {
			if c.ID != d.NoticeID {
				kept = append(kept, c)
			}
		}
		body.Children = kept
	}
}

// rng builds a deterministic per-(salt,domain,epoch) rand source.
func (w *World) rng(salt, domain string, epoch int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(w.hash64(salt, domain, epoch))))
}

func (w *World) hash64(salt, domain string, epoch int64) uint64 {
	return stats.Hash64(salt, domain, epoch, w.Cfg.Seed)
}

func (w *World) hashFloat(salt, domain string, epoch int64) float64 {
	return stats.HashFloat(salt, domain, epoch, w.Cfg.Seed)
}
