package abp

import "testing"

// FuzzMatchDifferential throws arbitrary (rule line, URL, page domain)
// triples at the three probe stages and fails on any divergence: the
// compiled automaton, the token-hash keyword index, and the index-free
// linear scan must return the same decision, the same winning rule, and the
// same all-matches slice. The fuzzed rule is compiled into a list alongside
// a fixed rule mix so candidate ordering, exception precedence, the generic
// bucket, and keyword selection among rules that share runs (the fuzzed
// rule changes the run counts of the whole list) are all exercised; the list's serialized automaton is also
// reattached via NewListCompiled to prove the round trip changes nothing.
// Tiered compiles of the same list — everything cold, everything hot, and an
// input-dependent mix — plus a tier round trip through NewListTiered are held
// to the same oracle, and the AppendHits/DecideHits serving path must agree
// with the plain verdict on every probe.
func FuzzMatchDifferential(f *testing.F) {
	f.Add("||pagefair.com^$third-party", "http://pagefair.com/score.js", "news.com")
	f.Add("/ads.js?", "http://numerama.com/ads.js?v=2", "numerama.com")
	f.Add("@@||numerama.com/ads.js", "http://numerama.com/ads.js?v=2", "numerama.com")
	f.Add("/detect*.js$script", "http://cdn.net/detect-v2.js", "site.com")
	f.Add("||example.com^", "http://user:pw@example.com/x", "page.com")
	f.Add("|http://x.com/a.js|", "http://x.com/a.js", "x.com")
	f.Add("/a*a*a*b", "http://x.com/aaaaaaac", "x.com")
	f.Add("/KKlvin", "http://x.com/KKlvin.js", "x.com") // Kelvin sign: non-ASCII fold
	f.Add("*^*", "http://x.com/", "x.com")
	// Shared path, distinct hosts: rarity moves these rules off the path run.
	f.Add("||host3.example/js/advertisement.js", "https://host3.example/js/advertisement.js", "host3.example")
	f.Add("||host3.example/js/advertisement.js", "https://HOST1.example/JS/Advertisement.js?x=host3", "Host1.Example")
	f.Add("/js/advertisement.js$domain=host2.example", "https://host9.example/js/advertisement.js", "www.HOST2.example")
	f.Add("|https://advertisement.", "https://advertisement.host1.example/js/", "x.com")

	fixed := []string{
		"||vendor.com^$third-party",
		"/ads.js?",
		"@@||benign.com/ads.js",
		"/detect007*.js$script",
		"||cdn.example^adsbygoogle^",
		"||host1.example/js/advertisement.js",
		"||host2.example/js/advertisement.js",
		"@@||host2.example/js/advertisement.js$domain=host2.example",
		"/js/advertisement.js$domain=host1.example",
	}

	f.Fuzz(func(t *testing.T, line, url, page string) {
		lines := append(append([]string(nil), fixed...), line)
		var rules []*Rule
		for _, ln := range lines {
			if r, err := Parse(ln); err == nil {
				rules = append(rules, r)
			}
		}
		list := NewList("fuzz", rules)
		re, err := NewListCompiled("fuzz", rules, list.AutomatonBytes())
		if err != nil {
			t.Fatalf("round-trip rejected own bytes: %v", err)
		}

		q := Request{URL: url, Type: TypeScript, PageDomain: page}
		ld, lr := list.MatchRequestLinear(q)
		check := func(name string, d Decision, r *Rule) {
			if d != ld || r != lr {
				t.Fatalf("%s: rule %q url %q page %q: (%v, %v) != linear (%v, %v)",
					name, line, url, page, d, raw(r), ld, raw(lr))
			}
		}
		ad, ar := list.MatchRequest(q)
		check("automaton", ad, ar)
		td, tr := list.MatchRequestTokenIndex(q)
		check("token-index", td, tr)
		rd, rr := re.MatchRequest(q)
		check("reattached", rd, rr)

		allCold := list.CompileTiered(nil)
		allHot := list.CompileTiered(func(int) bool { return true })
		mixed := list.CompileTiered(func(ord int) bool { return (ord+len(url))%3 == 0 })
		tre, err := NewListTiered("fuzz", rules, mixed.AutomatonBytes(), mixed.ColdAutomatonBytes())
		if err != nil {
			t.Fatalf("tier round-trip rejected own bytes: %v", err)
		}
		tiered := []struct {
			name string
			l    *List
		}{
			{"tiered-cold", allCold},
			{"tiered-hot", allHot},
			{"tiered-mix", mixed},
			{"tiered-reattached", tre},
		}
		for _, tt := range tiered {
			d, r := tt.l.MatchRequest(q)
			check(tt.name, d, r)
			hd, hr, ord := DecideHits(tt.l.AppendHits(nil, q))
			check(tt.name+"-hits", hd, hr)
			if hr != nil && tt.l.Rules()[ord] != hr {
				t.Fatalf("%s: DecideHits ordinal %d does not index its winner", tt.name, ord)
			}
		}

		want := list.MatchingHTTPRulesLinear(q)
		for _, probe := range []struct {
			name string
			got  []*Rule
		}{
			{"automaton", list.MatchingHTTPRules(q)},
			{"token-index", list.MatchingHTTPRulesTokenIndex(q)},
			{"reattached", re.MatchingHTTPRules(q)},
			{"tiered-cold", allCold.MatchingHTTPRules(q)},
			{"tiered-mix", mixed.MatchingHTTPRules(q)},
			{"tiered-reattached", tre.MatchingHTTPRules(q)},
		} {
			if len(probe.got) != len(want) {
				t.Fatalf("%s all-matches: rule %q url %q: %d rules != linear %d",
					probe.name, line, url, len(probe.got), len(want))
			}
			for i := range probe.got {
				if probe.got[i] != want[i] {
					t.Fatalf("%s all-matches: rule %q url %q: rule %d %q != %q",
						probe.name, line, url, i, probe.got[i].Raw, want[i].Raw)
				}
			}
		}
	})
}

func raw(r *Rule) string {
	if r == nil {
		return "<nil>"
	}
	return r.Raw
}
