package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"adwars/internal/abp"
	"adwars/internal/alexa"
	"adwars/internal/experiments"
	"adwars/internal/listgen"
	"adwars/internal/ml"
	"adwars/internal/serve"
	"adwars/internal/simworld"
)

// Everything the benchmark feeds the programs under test is generated here
// from the seed and nothing else: the same seed gives byte-identical list
// text, request bodies and scripts (corpus_test.go pins that).

const (
	easyRules = 70_000 // "Who Filters the Filters": a deployed list is ~70 k rules
	poolSize  = 4096   // request bodies per match workload
	maxScript = 512    // classify pool cap
	// Host and page-domain popularity is Zipf–Mandelbrot over Alexa rank,
	// P(rank r) ∝ (zipfQ + r − 1)^−zipfS. A pure Zipf (q = 1) would put a
	// seventh of all requests on the first host, and whether the lists
	// happen to name that one host would decide the match fraction — and so
	// the cost per request — of the whole seed.
	zipfS = 1.1
	zipfQ = 10
	// modelSeed is the world the classify model is trained on, whatever the
	// run's seed. Training is seed-sensitive — AdaBoost stops after 1 to 9
	// rounds depending on the corpus, a threefold swing in scoring cost that
	// would drown any code change — so the model is held fixed and the
	// seed chooses the scripts it is asked about.
	modelSeed = 1
	// noRuleTop keeps the easylist-scale rules off the most popular ranks,
	// for the same reason; real lists do not block the top sites outright
	// either.
	noRuleTop = 100
)

// adPaths is the fixed ad-ish path set requests draw from and path rules
// are written over, so that path rules can fire. The first entries are the
// bait paths the paper lists (listgen) already name.
var adPaths = []string{
	"/ads.js", "/js/ads.js", "/adsbygoogle.js", "/advertising.js",
	"/assets/ad-loader.js", "/static/showads.js", "/banner/ads.js",
	"/js/advertisement.js", "/js/blockadblock.js", "/detect.js",
	"/js/site-adblock.js", "/js/iab-adblock-check.js",
	"/adbanner_7.js", "/img/-ad-300x250.3.js", "/ad/sponsor_12/frame.js",
	"/track/pixel.js",
}

// easyShape is one rule shape of the easylist-scale list with its share in
// percent. The shares are the documented mix (README, "Corpus"); they sum
// to 100 and corpus_test.go holds the generator to them within a point.
type easyShape struct {
	name  string
	pct   int
	class abp.Class
}

var easyMix = []easyShape{
	{"anchor", 45, abp.ClassHTTPAnchor},          // ||d^
	{"anchor-path", 10, abp.ClassHTTPAnchor},     // ||d/path
	{"anchor-tag", 8, abp.ClassHTTPAnchorTag},    // ||d/path$script,domain=d2
	{"tag", 3, abp.ClassHTTPTag},                 // /path$domain=d2
	{"plain", 8, abp.ClassHTTPPlain},             // -ad-300x250.N, /adbanner_N
	{"exception", 6, abp.ClassHTTPAnchor},        // @@||d/path
	{"hide-domain", 15, abp.ClassHTMLWithDomain}, // d###id
	{"hide-generic", 5, abp.ClassHTMLNoDomain},   // ##.class
}

// classShares folds easyMix into the paper's six rule classes (Figure 1).
func classShares() map[abp.Class]float64 {
	out := map[abp.Class]float64{}
	for _, s := range easyMix {
		out[s.class] += float64(s.pct) / 100
	}
	return out
}

// listText is one filter list as the text a maintainer would publish.
type listText struct {
	Name, Body string
}

// paperLists renders the latest revisions of the two lists the paper
// compares, AAK and Combined EasyList, as listgen produces them at paper
// scale (Fig 1 / Table 1 mix). The world's universe is returned with them
// because the request pool ranks hosts over the same domains.
func paperLists(seed int64) ([]listText, *alexa.Universe) {
	w := simworld.New(simworld.DefaultConfig(seed))
	ls := listgen.Generate(w, seed)
	return []listText{
		{ls.AAK.Name, listgen.RenderLatest(ls.AAK)},
		{ls.Combined.Name, listgen.RenderLatest(ls.Combined)},
	}, w.Universe
}

// easyList synthesises n rules over the universe's domains in the easyMix
// shares. Most rules name a domain or a numbered creative nothing in the
// request pool asks for, as on a deployed list, where most rules never
// fire.
func easyList(seed int64, uni *alexa.Universe, n int) listText {
	rng := rand.New(rand.NewSource(seed ^ 0x6561737931)) // "easy1"
	sites := uni.Top(uni.Len())
	domain := func() string {
		lo := noRuleTop
		if lo >= len(sites) {
			lo = 0
		}
		return sites[lo+rng.Intn(len(sites)-lo)].Domain
	}
	path := func() string {
		if rng.Intn(2) == 0 {
			return adPaths[rng.Intn(len(adPaths))]
		}
		return fmt.Sprintf("/assets/ads/unit_%d.js", rng.Intn(50_000))
	}
	shapes := make([]int, 0, n)
	for i, s := range easyMix {
		for k := 0; k < n*s.pct/100; k++ {
			shapes = append(shapes, i)
		}
	}
	for len(shapes) < n { // rounding remainder goes to the largest share
		shapes = append(shapes, 0)
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })

	var b strings.Builder
	b.WriteString("[Adblock Plus 2.0]\n! Title: EasyList-scale synthetic\n")
	for i, sh := range shapes {
		switch easyMix[sh].name {
		case "anchor":
			fmt.Fprintf(&b, "||%s^\n", domain())
		case "anchor-path":
			fmt.Fprintf(&b, "||%s%s\n", domain(), path())
		case "anchor-tag":
			fmt.Fprintf(&b, "||%s%s$script,domain=%s\n", domain(), path(), domain())
		case "tag":
			fmt.Fprintf(&b, "%s$domain=%s\n", path(), domain())
		case "plain":
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "-ad-300x250.%d\n", rng.Intn(4000))
			} else {
				fmt.Fprintf(&b, "/adbanner_%d\n", rng.Intn(4000))
			}
		case "exception":
			fmt.Fprintf(&b, "@@||%s%s\n", domain(), path())
		case "hide-domain":
			fmt.Fprintf(&b, "%s###ad-slot-%d\n", domain(), i)
		case "hide-generic":
			fmt.Fprintf(&b, "##.ad-unit-%d\n", i)
		}
	}
	return listText{"EasyList-scale", b.String()}
}

// buildLists parses and compiles list texts the way a list consumer does.
// A line that does not parse is a corpus bug, not a measurement.
func buildLists(texts []listText) ([]*abp.List, error) {
	out := make([]*abp.List, len(texts))
	for i, t := range texts {
		l, errs := abp.ParseAndBuild(t.Name, t.Body)
		if len(errs) > 0 {
			return nil, fmt.Errorf("corpus: list %q: %d lines do not parse, first: %v", t.Name, len(errs), errs[0])
		}
		out[i] = l
	}
	return out, nil
}

// listDomains is the sorted union of the lists' targeted domains, the set
// one request in three is drawn from so that rules fire.
func listDomains(lists []*abp.List) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l.Domains()...)
	}
	return out
}

// requestPool draws n match queries: host Zipf–Mandelbrot over Alexa rank, one in
// three from the served lists' domains instead; three in four with an
// ad-ish path, the rest a cache-busted CDN URL with a query string; all of
// type script; page domain Zipf, except that a request to a listed domain
// comes from that domain's own page, so self-referencing $domain= rules
// can fire. Every match workload uses this generator and the run's seed,
// so their mixes differ only in which lists are served.
func requestPool(seed int64, uni *alexa.Universe, listed []string, n int) []serve.MatchQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c)) // "pool"
	sites := uni.Top(uni.Len())
	zipf := rand.NewZipf(rng, zipfS, zipfQ, uint64(len(sites)-1))
	out := make([]serve.MatchQuery, n)
	for i := range out {
		host := sites[zipf.Uint64()].Domain
		page := sites[zipf.Uint64()].Domain
		if i%3 == 2 && len(listed) > 0 {
			host = listed[rng.Intn(len(listed))]
			page = host
		}
		url := "https://" + host + adPaths[rng.Intn(len(adPaths))]
		if rng.Intn(4) == 0 {
			url = fmt.Sprintf("https://cdn.%s/assets/app.%08x.js?v=%d&cb=%d",
				host, rng.Uint32(), rng.Intn(100), rng.Int63())
		}
		out[i] = serve.MatchQuery{URL: url, Type: "script", PageDomain: page}
	}
	return out
}

// marshalPool pre-marshals the queries, so the timed client writes bytes
// and encodes nothing.
func marshalPool(qs []serve.MatchQuery) [][]byte {
	out := make([][]byte, len(qs))
	for i := range qs {
		b, err := json.Marshal(&qs[i])
		if err != nil {
			panic(err) // three string fields cannot fail to marshal
		}
		out[i] = b
	}
	return out
}

// scriptCorpus is the §5 material, at 1/scale of paper size: the headline
// model trained on the retrospective corpus of the modelSeed world, and the
// anti-adblock scripts the live crawl of the seed's world found — other
// sites, other deployments, never seen in training.
type scriptCorpus struct {
	Scripts []string
	Model   *ml.ModelSnapshot
}

func buildScriptCorpus(ctx context.Context, seed int64, scale int) (*scriptCorpus, error) {
	trainLab := experiments.NewLab(simworld.Scaled(modelSeed, scale))
	retro, err := trainLab.RunRetrospective(ctx, experiments.RetroConfig{Shards: 1})
	if err != nil {
		return nil, fmt.Errorf("corpus: retrospective crawl: %w", err)
	}
	train := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	model, err := experiments.TrainHeadlineModel(train, modelSeed, experiments.PipelineConfig{})
	if err != nil {
		return nil, fmt.Errorf("corpus: headline model: %w", err)
	}
	live, err := experiments.NewLab(simworld.Scaled(seed, scale)).RunLive(ctx, experiments.LiveConfig{})
	if err != nil {
		return nil, fmt.Errorf("corpus: live crawl: %w", err)
	}
	sc := &scriptCorpus{Model: model}
	for _, s := range live.Scripts {
		if len(sc.Scripts) == maxScript {
			break
		}
		sc.Scripts = append(sc.Scripts, s.Source)
	}
	if len(sc.Scripts) == 0 {
		return nil, fmt.Errorf("corpus: live crawl found no scripts")
	}
	return sc, nil
}
