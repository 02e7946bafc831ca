// Package listgen derives the anti-adblock filter list histories from the
// world's ground-truth deployment timeline through an explicit
// crowdsourced-curation model (see DESIGN.md, substitutions). It generates
// the Anti-Adblock Killer List, the anti-adblock sections of EasyList, and
// the Adblock Warning Removal List, with the observable properties the
// paper measures:
//
//   - rule-type mixes and growth trajectories (Figure 1),
//   - listed-domain counts per Alexa rank bucket (Table 1) and category
//     (Figure 2),
//   - exception/non-exception domain ratios (§3.3: CEL ≈ 4:1, AAK ≈ 1:1),
//   - the paper's overlap of domains between the two lists, with the Combined
//     EasyList usually adding a shared domain first (Figure 3),
//   - update cadences (EasyList near-daily, AAK monthly after Nov 2015,
//     with AAK abandoned after Nov 2016),
//   - and the curation-delay structure behind Figure 7: broad/vendor rules
//     that predate a site's adoption versus site-specific rules added only
//     after crowdsourced reports.
package listgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"adwars/internal/abp"
	"adwars/internal/antiadblock"
	"adwars/internal/simworld"
)

// Dates of record for the three lists (§3.2 of the paper).
var (
	// AAKStart is when "reek" created the Anti-Adblock Killer List.
	AAKStart = time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	// AAKLastUpdate is the list's final revision (the authors stopped in
	// November 2016).
	AAKLastUpdate = time.Date(2016, 11, 15, 0, 0, 0, 0, time.UTC)
	// EasyListAAStart is when EasyList's anti-adblock sections appeared.
	EasyListAAStart = time.Date(2011, 5, 1, 0, 0, 0, 0, time.UTC)
	// AWRLStart is when the Adblock Warning Removal List was created.
	AWRLStart = time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)
	// HistoryEnd is how far histories extend (past the live crawl).
	HistoryEnd = time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC)
)

// event is one rule joining a list at a desired time.
type event struct {
	t    time.Time
	rule string
}

// Lists bundles the generated histories.
type Lists struct {
	// AAK is the Anti-Adblock Killer List.
	AAK *abp.History
	// EasyListAA is the anti-adblock sections of EasyList.
	EasyListAA *abp.History
	// AWRL is the Adblock Warning Removal List.
	AWRL *abp.History
	// Combined is AWRL + EasyListAA, the paper's "Combined EasyList".
	Combined *abp.History
}

// Generate derives all filter list histories from the world.
func Generate(w *simworld.World, seed int64) *Lists {
	g := &generator{w: w, seed: seed}
	g.assignListings()
	aak := g.buildAAK()
	el := g.buildEasyListAA()
	awrl := g.buildAWRL()
	return &Lists{
		AAK:        aak,
		EasyListAA: el,
		AWRL:       awrl,
		Combined:   abp.MergeHistories("Combined EasyList", el, awrl),
	}
}

type listing struct {
	dep     *antiadblock.Deployment
	inAAK   bool
	inCEL   bool
	aakTime time.Time // desired site-rule time in AAK
	celTime time.Time // desired site-rule time in CEL
}

type generator struct {
	w    *simworld.World
	seed int64

	listings []*listing
	// exception domains per list, with desired add times.
	aakExc, celExc []event

	// frenchDomains back the AWRL French-section spike of April 2016.
	frenchDomains []string

	// awrlListingEvents are warning-hide rules produced while building
	// the EasyList sections that belong to AWRL (set by buildEasyListAA,
	// consumed by buildAWRL — Generate calls them in that order).
	awrlListingEvents []event
}

func (g *generator) rng(salt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", salt, g.seed)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// scale shrinks the paper's absolute quotas for scaled-down worlds.
func (g *generator) scale() float64 {
	return float64(g.w.Cfg.UniverseSize) / 100_000
}

// bucketOf maps a deployment to its Table 1 rank bucket index.
func bucketIndex(rank int) int {
	switch {
	case rank >= 1 && rank <= 5_000:
		return 0
	case rank <= 10_000:
		return 1
	case rank <= 100_000:
		return 2
	case rank <= 1_000_000:
		return 3
	default:
		return 4
	}
}

// Table 1 block-rule domain quotas per bucket. Roughly half of AAK's
// listed domains are non-exception (1:1 ratio) and a fifth of CEL's (4:1),
// distributed like the full Table 1 columns.
var (
	aakBlockQuota = [5]int{56, 25, 140, 167, 320}
	celBlockQuota = [5]int{60, 14, 62, 72, 106}
	// Overlap between the lists' block-listed domains per bucket; with
	// exception overlap this lands near the paper's shared domains (X1).
	overlapQuota = [5]int{14, 6, 30, 42, 50}
	// Exception-domain quotas (false-positive fixes on mostly benign
	// sites).
	aakExcQuota = [5]int{56, 24, 140, 167, 320}
	celExcQuota = [5]int{64, 55, 250, 287, 424}
	// Exception overlap complements block overlap toward that count.
	excOverlapQuota = [5]int{14, 6, 30, 40, 50}
)

// assignListings decides which deployments each list targets and when.
func (g *generator) assignListings() {
	rng := g.rng("assign")
	scale := g.scale()

	// Group deployments by bucket, ordered by a deterministic hash so
	// selection is stable.
	byBucket := make([][]*antiadblock.Deployment, 5)
	for _, d := range g.w.Deployments() {
		b := bucketIndex(g.w.RankOf(d.SiteDomain))
		byBucket[b] = append(byBucket[b], d)
	}
	for b := range byBucket {
		bucket := byBucket[b]
		rng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })

		nOverlap := scaled(overlapQuota[b], scale)
		nAAK := scaled(aakBlockQuota[b], scale)
		nCEL := scaled(celBlockQuota[b], scale)
		for i, d := range bucket {
			l := &listing{dep: d}
			switch {
			case i < nOverlap:
				l.inAAK, l.inCEL = true, true
			case i < nOverlap+(nAAK-nOverlap):
				l.inAAK = true
			case i < nOverlap+(nAAK-nOverlap)+(nCEL-nOverlap):
				l.inCEL = true
			default:
				continue
			}
			g.timings(l, rng)
			g.listings = append(g.listings, l)
		}
	}
	sort.Slice(g.listings, func(i, j int) bool {
		return g.listings[i].dep.SiteDomain < g.listings[j].dep.SiteDomain
	})

	g.assignExceptions(rng)
	g.assignFrench(rng)
}

func scaled(quota int, scale float64) int {
	n := int(float64(quota)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// timings draws the crowdsourced report delays. The Combined EasyList is
// usually faster (bigger user base, §3.3); roughly a third of shared
// domains reach AAK first (Figure 3, target F3).
func (g *generator) timings(l *listing, rng *rand.Rand) {
	start := l.dep.Start
	celFast := rng.Float64() < 0.67
	celDelay := time.Duration(rng.ExpFloat64()*float64(55*24)) * time.Hour
	aakDelay := time.Duration(rng.ExpFloat64()*float64(260*24)) * time.Hour
	if !celFast {
		celDelay = time.Duration(rng.ExpFloat64()*float64(320*24)) * time.Hour
		aakDelay = time.Duration(rng.ExpFloat64()*float64(60*24)) * time.Hour
	}
	l.celTime = clampTime(start.Add(celDelay), EasyListAAStart, HistoryEnd)
	l.aakTime = clampTime(start.Add(aakDelay), AAKStart, HistoryEnd)
}

func clampTime(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// assignExceptions picks mostly-benign domains that receive exception
// rules (the numerama.com pattern: a broad rule breaks a site, the fix is
// an exception). Universe buckets draw real non-deployed domains; deeper
// buckets use fabricated domains, as the paper's lists are full of sites
// outside the top-100K.
func (g *generator) assignExceptions(rng *rand.Rand) {
	scale := g.scale()
	pool := g.w.NonDeployedDomains(g.w.Cfg.UniverseSize)
	poolIdx := 0
	nextReal := func(bucket int) string {
		for poolIdx < len(pool) {
			d := pool[poolIdx]
			poolIdx++
			if bucketIndex(g.w.RankOf(d)) == bucket {
				return d
			}
		}
		return ""
	}
	fabricated := 0
	nextDomain := func(bucket int) string {
		if bucket <= 2 {
			if d := nextReal(bucket); d != "" {
				return d
			}
		}
		fabricated++
		return fmt.Sprintf("fpfix%05d.com", fabricated)
	}
	addTime := func(listStart time.Time) time.Time {
		// Exception fixes follow broad-rule breakage reports: spread
		// over the list's life, weighted early (breakage surfaces fast).
		span := HistoryEnd.Sub(listStart)
		frac := rng.Float64()
		frac = frac * frac // bias early
		return listStart.Add(time.Duration(frac * float64(span)))
	}
	for b := 0; b < 5; b++ {
		nShared := scaled(excOverlapQuota[b], scale)
		nAAK := scaled(aakExcQuota[b], scale)
		nCEL := scaled(celExcQuota[b], scale)
		for i := 0; i < nShared; i++ {
			d := nextDomain(b)
			t := addTime(EasyListAAStart)
			g.celExc = append(g.celExc, event{t, excRule(d, rng, celExcHTMLShare)})
			g.aakExc = append(g.aakExc, event{clampTime(t, AAKStart, HistoryEnd), excRule(d, rng, aakExcHTMLShare)})
		}
		for i := 0; i < nAAK-nShared; i++ {
			g.aakExc = append(g.aakExc, event{addTime(AAKStart), excRule(nextDomain(b), rng, aakExcHTMLShare)})
		}
		for i := 0; i < nCEL-nShared; i++ {
			g.celExc = append(g.celExc, event{addTime(EasyListAAStart), excRule(nextDomain(b), rng, celExcHTMLShare)})
		}
	}
}

// Exception-rule HTML shares: EasyList's anti-adblock sections are almost
// entirely HTTP rules (Figure 1c), while AAK mixes in far more element
// rules (Figure 1a); experiments' F1 targets hold both shares.
const (
	celExcHTMLShare = 0.04
	aakExcHTMLShare = 0.38
)

// excRule renders an exception rule for a domain.
func excRule(domain string, rng *rand.Rand, htmlProb float64) string {
	if rng.Float64() < htmlProb {
		return domain + "#@##adsbox"
	}
	switch rng.Intn(3) {
	case 0:
		return "@@||" + domain + "/ads.js"
	case 1:
		return "@@||" + domain + "^$script"
	default:
		return "@@||" + domain + "/js/advert*.js$script"
	}
}

// assignFrench fabricates the April 2016 French-section batch of the
// Adblock Warning Removal List (the Figure 1(b) spike).
func (g *generator) assignFrench(rng *rand.Rand) {
	n := scaled(40, g.scale())
	for i := 0; i < n; i++ {
		g.frenchDomains = append(g.frenchDomains, fmt.Sprintf("lesite%03d.fr", i))
	}
}
