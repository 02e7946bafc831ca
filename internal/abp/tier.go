package abp

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"adwars/internal/artifact"
)

// A tiered list is its flat list plus a hot subset. List.auto is always the
// whole automaton — every HTTP rule filed under a keyword, and the generic
// array — and every full lookup (AppendHits, MatchRequest) is one scan of it
// and of the page-domain index, on a tiered list exactly as on a flat one.
// Tiering adds List.hot: a second, small automaton compiled from the same
// rules array, checksum and keyword selection over the rules a brownout still
// consults (AppendHitsHot, the overload governor's L2 path) — the rules that
// actually fire in production plus every rule correctness pins there.
//
// "Who Filters the Filters" measures that the overwhelming majority of
// crowdsourced rules never fire, and motivates tiering by memory and shipping
// size, never by probe time: a lookup that scanned hot first and the rest
// second paid two scans for one verdict. So the hot automaton is not a stage
// of the full lookup; it is what a degraded replica scans instead of it, and
// the dead-rule exhibit's measure of the working set.
//
// The subset invariants, all enforced at attach time (attachHot) and
// guaranteed by CompileTiered's normalization:
//
//  1. The whole automaton files every HTTP rule the page-domain index
//     (domainIndex) does not serve, exactly once.
//  2. Every rule hot files is filed by the whole automaton under the same
//     run, so one guard per ordinal serves both scans; both carry the same
//     generic array.
//  3. Every exception rule and every keyword-less HTTP rule is hot. An
//     Allowed verdict is then exact under a brownout, and the only drift a
//     hot-only lookup can show is a non-hot block reported as NoMatch.

// domainIndex files the HTTP rules no automaton holds under each of their
// positive $domain= entries, sorted by domain and then ordinal. A rule whose
// $domain= condition holds on a page names the page's domain or a parent of
// it (domainWithin), so the entries under those are every rule of the index
// a request from the page can match. Most pages are named by no rule, so a
// one-hash Bloom filter over the filed domains (16 bits or more each) stands
// before the search. It is derived from the automatons at attach
// time, never serialized: a region compiled with every rule under its run
// leaves it empty.
type domainIndex struct {
	entries []domainEntry
	filter  []uint64 // a power of two of words; see has
	rules   int      // rules filed, each under one domain or more
}

type domainEntry struct {
	domain string
	ord    uint32
}

func newDomainIndex(rules []*Rule, filed []uint32) *domainIndex {
	x := &domainIndex{rules: len(filed)}
	for _, ord := range filed {
		for _, d := range rules[ord].Domains() {
			x.entries = append(x.entries, domainEntry{d, ord})
		}
	}
	slices.SortFunc(x.entries, func(a, b domainEntry) int {
		return cmp.Or(strings.Compare(a.domain, b.domain), cmp.Compare(a.ord, b.ord))
	})
	x.filter = make([]uint64, 1<<bits.Len(uint(len(x.entries)/4+4)))
	for _, e := range x.entries {
		h := uint32(0)
		for i := len(e.domain); i > 0; i-- {
			h = domainHash(h, e.domain[i-1])
		}
		x.filter[h>>6&uint32(len(x.filter)-1)] |= 1 << (h & 63)
	}
	return x
}

// domainHash extends the hash of a domain's tail by the byte before it
// (FNV-1a, last byte first): one backward pass over a page domain yields the
// hash of every suffix of it.
func domainHash(h uint32, b byte) uint32 { return (h ^ uint32(b)) * 16777619 }

// has reports whether a filed domain may hash to h.
func (x *domainIndex) has(h uint32) bool {
	return x.filter[h>>6&uint32(len(x.filter)-1)]>>(h&63)&1 != 0
}

// scanInto pushes the rules filed under the request's page domain and under
// every parent of it — the suffixes domainWithin accepts — into the context.
func (x *domainIndex) scanInto(c *matchCtx) {
	p, h := c.q.PageDomain, uint32(0)
	for n := len(p); n >= 0 && len(x.entries) > 0; n-- {
		if (n == 0 || p[n-1] == '.') && x.has(h) {
			i, _ := slices.BinarySearchFunc(x.entries, p[n:], func(e domainEntry, d string) int {
				return strings.Compare(e.domain, d)
			})
			for ; i < len(x.entries) && x.entries[i].domain == p[n:]; i++ {
				c.pushCand(x.entries[i].ord)
			}
		}
		if n > 0 {
			h = domainHash(h, p[n-1])
		}
	}
}

// CompileTiered compiles the list into a tiered copy: keep reports
// whether the rule at an ordinal belongs in the hot automaton (typically
// "usage counters saw it fire"). The hot set is normalized with the rules
// correctness requires to stay hot — every exception rule and every
// keyword-less HTTP rule — so any keep predicate (including nil: nothing
// voluntarily hot) yields a list whose brownout answers drift one way only.
// The copy shares the receiver's rules, whole automaton, keyword selection,
// guards and index — a tiered receiver hands on its whole automaton, never
// its hot one — and only the hot automaton is built. The receiver is
// unchanged; both lists stay safe for concurrent matchers.
func (l *List) CompileTiered(keep func(ord int) bool) *List {
	tl := *l
	tl.usage, tl.hot, tl.hotRule = nil, nil, nil
	var runs []int32
	if tl.kws == nil {
		// l was attached from a snapshot: its automaton, index and guards go
		// with the selection its regions were compiled under, not with this one.
		tl.kws, runs = selectKeywords(l.rules)
		tl.dom = nil
		tl.guards = ruleGuards(l.rules, tl.kws)
		tl.auto = buildAutomaton(l.rules, tl.kws, runs, l.rulesCRC, nil)
	}
	member := make([]bool, len(l.rules))
	for ord, r := range l.rules {
		member[ord] = r.IsHTTP() &&
			(r.Kind == KindHTTPException || tl.kws[ord].none() || keep != nil && keep(ord))
	}
	if err := tl.attachHot(buildAutomaton(l.rules, tl.kws, runs, l.rulesCRC, member)); err != nil {
		// Unreachable: the normalization above establishes every invariant
		// attachHot checks.
		panic(fmt.Sprintf("abp: internal: freshly compiled tiers failed validation: %v", err))
	}
	return &tl
}

// attachHot validates the already attached whole automaton and, when hot is
// not nil, the subset invariants of the pair (see the top of the file), then
// installs the hot automaton, the page-domain index and the guards. What each
// automaton files is read off the automaton itself — a rule is filed where a
// state lists it under a keyword of its own, or in the generic array — so no
// membership table needs serializing: the snapshot sections are
// self-describing. A nil hot is a flat list. An index and guards the list
// already has (a compile: those of the selection its regions were built from)
// are kept; a loaded list derives them here, the guards from the run each rule
// is found filed under in the whole region, which is also where a hot region
// that files a rule under another run is caught.
func (l *List) attachHot(hot *automaton) error {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("tier-invalid", format, args...)
	}
	// Only a load has guards to derive. For that, spelled collects the keyword
	// of every state of the whole automaton that files a rule (automaton.spelling,
	// each ended by a 0: no symbol) and at[o] is where rule o's begins, plus one.
	guards, at, spelled := l.guards, []uint32(nil), []byte(nil)
	if guards == nil {
		guards, at = make([]guard, len(l.rules)), make([]uint32, len(l.rules))
		spelled = make([]byte, 0, 8*len(l.rules))
	}
	// own visits every state of a that files rules with the rules it files. A
	// state's own rules lead its output list, ahead of the lists merged in down
	// its fail chain, so each rule is met once, at the state its keyword spells.
	own := func(a *automaton, visit func(s uint32, rules []uint32) error) error {
		for s, f := range a.fail {
			lo, hi := a.outIdx[s], a.outIdx[s+1]
			if lo == hi {
				continue
			}
			merged := a.outIdx[f+1] - a.outIdx[f]
			if merged > hi-lo {
				return corrupt("state %d lists fewer rules than its fail state %d", s, f)
			}
			if hi -= merged; hi > lo {
				if err := visit(uint32(s), a.outputs[lo:hi]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// filed marks the rules the whole automaton holds; hotRule the rules a
	// hot-only lookup of a tiered list consults. The generic array is marked
	// after the keyword passes, which must not meet its rules.
	filed := make([]bool, len(l.rules))
	err := own(l.auto, func(s uint32, rules []uint32) error {
		begins := uint32(len(spelled) + 1)
		if at != nil {
			spelled = append(l.auto.spelling(spelled, s), 0)
		}
		for _, o := range rules {
			if filed[o] {
				return corrupt("rule %d filed twice", o)
			}
			filed[o] = true
			if at != nil {
				at[o] = begins
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	hotRule := make([]bool, len(l.rules))
	if hot != nil {
		if !slices.Equal(hot.generic, l.auto.generic) {
			return corrupt("the hot automaton's keyword-less rules are not the whole automaton's")
		}
		var kw []byte
		err := own(hot, func(s uint32, rules []uint32) error {
			if at != nil {
				kw = append(hot.spelling(kw[:0], s), 0)
			}
			for _, o := range rules {
				switch {
				case hotRule[o]:
					return corrupt("rule %d filed twice in the hot automaton", o)
				case !filed[o]:
					return corrupt("hot rule %d is not filed by the whole automaton", o)
				case at != nil && !bytes.HasPrefix(spelled[at[o]-1:], kw):
					return corrupt("hot rule %d is filed under another run than in the whole automaton", o)
				}
				hotRule[o] = true
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, g := range l.auto.generic {
		if filed[g] {
			return corrupt("rule %d filed twice", g)
		}
		filed[g], hotRule[g] = true, true
	}
	var byDomain []uint32
	for ord, r := range l.rules {
		if at != nil && at[ord] != 0 {
			// The keyword a rule is found filed under must be a run of its
			// pattern, and the run's context there is the rule's guard. The
			// states were walked in their order and the rules are read in
			// theirs, so that neither the region nor the rule text is jumped
			// about in.
			kw := spelled[at[ord]-1:]
			if span, ok := findRun(r.Pattern, kw); ok {
				guards[ord] = ruleGuard(r.Pattern, span)
			} else if _, ok := findRun(strings.ToLower(r.Pattern), kw); !ok {
				// (A region compiled before the folding rule drew its runs
				// from the Unicode-lowered pattern — DESIGN §12 — and is
				// served as it was, unguarded.)
				return corrupt("rule %d is filed under a run its pattern does not have", ord)
			}
		}
		switch {
		case !r.IsHTTP():
		case filed[ord]:
			if hot != nil && !hotRule[ord] && r.Kind == KindHTTPException {
				return corrupt("exception rule %d is not in the hot automaton", ord)
			}
		case r.nDomains > 0:
			// Always consulted, like the hot automaton.
			byDomain = append(byDomain, uint32(ord))
			hotRule[ord] = true
		default:
			return corrupt("HTTP rule %d is in no automaton", ord)
		}
	}
	l.guards = guards
	if l.dom == nil {
		l.dom = newDomainIndex(l.rules, byDomain)
	}
	if hot != nil {
		l.hot, l.hotRule = hot, hotRule
	}
	return nil
}

// Tiered reports whether the list carries a hot automaton beside its whole one.
func (l *List) Tiered() bool { return l.hot != nil }

// IsHotRule reports whether a hot-only lookup (AppendHitsHot) consults the
// rule at ord. Every rule of an untiered list counts as hot (there is only one
// automaton); no ordinal outside the list does, on either kind.
func (l *List) IsHotRule(ord int) bool {
	return ord >= 0 && ord < len(l.rules) && (l.hotRule == nil || l.hotRule[ord])
}

// HotAutomatonBytes returns the hot automaton's serialized region (nil for
// untiered lists). Like AutomatonBytes, the slice aliases the automaton
// and must not be modified.
func (l *List) HotAutomatonBytes() []byte {
	if l.hot == nil {
		return nil
	}
	return l.hot.Bytes()
}

// TierStats describes a list's tier geometry: automaton region sizes and
// HTTP-rule membership counts. For an untiered list everything is "hot".
// DomainRules (served from the page-domain index) and GenericRules (no
// keyword: candidates of every request) are among HotRules; the rest of
// HotRules and all ColdRules are the KeywordRules an automaton finds, of which
// GuardedRules are nominated only where their run stands in its context.
type TierStats struct {
	// HotBytes is the region a hot-only lookup scans: the hot automaton, or
	// an untiered list's one automaton.
	HotBytes int
	// ColdBytes is the region a full lookup of a tiered list scans — the
	// whole automaton, hot rules included — and 0 on an untiered list.
	ColdBytes    int
	HotRules     int
	ColdRules    int
	KeywordRules int
	DomainRules  int
	GenericRules int
	GuardedRules int
}

// TierStats reports the list's tier geometry. HotBytes is the memory a
// degraded lookup touches — the "hot working set" the compaction loop
// minimizes.
func (l *List) TierStats() TierStats {
	st := TierStats{HotBytes: len(l.auto.blob), DomainRules: l.dom.rules, GenericRules: len(l.auto.generic)}
	if l.hot != nil {
		st.HotBytes, st.ColdBytes = len(l.hot.blob), len(l.auto.blob)
	}
	for ord, r := range l.rules {
		switch {
		case !r.IsHTTP():
		case l.IsHotRule(ord):
			st.HotRules++
		default:
			st.ColdRules++
		}
		if l.guards[ord] != 0 {
			st.GuardedRules++
		}
	}
	st.KeywordRules = st.HotRules + st.ColdRules - st.DomainRules - st.GenericRules
	return st
}
