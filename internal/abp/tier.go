package abp

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"adwars/internal/artifact"
)

// Tiered lists split one rule set across two automatons compiled against
// the same rules array and checksum:
//
//   - the HOT automaton (List.auto) holds the rules that actually fire in
//     production — plus every rule correctness pins there — in a small,
//     dense double-array that the decision path probes first;
//   - the COLD automaton (List.cold) holds the long tail of never-firing
//     blocking rules and is probed only when the hot tier cannot conclude
//     the verdict on its own.
//
// "Who Filters the Filters" measures that the overwhelming majority of
// crowdsourced rules never fire; tiering turns that skew into a working-
// set win: the memory a typical verdict walks shrinks to the hot tier
// while answers stay byte-identical to the untiered list (differential-
// tested and fuzzed against the linear reference).
//
// Three membership invariants make the staged probe exact, all enforced at
// attach time and guaranteed by CompileTiered's normalization:
//
//  1. Every exception rule is hot. An Allowed verdict can then conclude
//     from the hot probe alone: the first matching hot exception is the
//     globally first matching exception.
//  2. Every keyword-less HTTP rule is hot. The cold automaton carries no
//     generic bucket (a keyword-less cold rule would never be probed), so
//     a cold rule is always reachable through its keyword.
//  3. An HTTP rule in neither automaton names a page domain, and is served
//     from the page-domain index (domainIndex) with the hot tier.
//
// Cold rules are therefore exactly a subset of keyword-bearing blocking
// rules. coldMinBlk — the lowest cold ordinal — lets a hot block below it
// win without the cold probe at all.

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
		for _, d := range rules[ord].Domains {
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
// whether the rule at an ordinal belongs in the hot tier (typically
// "usage counters saw it fire"). The hot set is normalized with the rules
// correctness requires to stay hot — every exception rule and every
// keyword-less HTTP rule — so any keep predicate (including nil: nothing
// voluntarily hot) yields a semantically identical list. The receiver is
// unchanged; rules are shared, both lists stay safe for concurrent
// matchers.
func (l *List) CompileTiered(keep func(ord int) bool) *List {
	tl := &List{
		Name:        l.Name,
		rules:       l.rules,
		rulesCRC:    l.rulesCRC,
		kws:         l.kws,
		dom:         l.dom,
		guards:      l.guards,
		elemHide:    l.elemHide,
		elemExcept:  l.elemExcept,
		hideIdx:     l.hideIdx,
		hideToggles: l.hideToggles,
	}
	if tl.kws == nil {
		// l was attached from a snapshot: its index and guards go with the
		// selection its regions were compiled under, not with this one.
		tl.kws, tl.dom = selectKeywords(l.rules), nil
		tl.guards = ruleGuards(l.rules, tl.kws)
	}
	hot := make([]bool, len(l.rules))
	cold := make([]bool, len(l.rules))
	for ord, r := range l.rules {
		if !r.IsHTTP() {
			continue
		}
		switch {
		case r.Kind == KindHTTPException,
			tl.kws[ord].none(),
			keep != nil && keep(ord):
			hot[ord] = true
		default:
			cold[ord] = true
		}
	}
	tl.auto = buildAutomaton(l.rules, tl.kws, l.rulesCRC, hot)
	if err := tl.attachCold(buildAutomaton(l.rules, tl.kws, l.rulesCRC, cold)); err != nil {
		// Unreachable: the normalization above establishes every invariant
		// attachCold checks.
		panic(fmt.Sprintf("abp: internal: freshly compiled tiers failed validation: %v", err))
	}
	return tl
}

// attachCold validates the tier membership invariants against the already
// attached hot automaton and installs the cold tier, the page-domain index and
// the guards. Membership is derived from the automatons themselves — a rule
// is a member of the one that files it under a keyword of its own, or lists
// it as generic — so no separate membership table needs serializing: the
// snapshot sections are self-describing. A nil cold is a flat list: the one
// automaton must hold every HTTP rule the index cannot serve — which is what
// refuses a tiered list's hot region arriving without its cold one. An index
// and guards the list already has (a compile: those of the selection its
// regions were built from) are kept; a loaded list derives them here, the
// guards from the run each rule is found filed under.
func (l *List) attachCold(cold *automaton) error {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("tier-invalid", format, args...)
	}
	hot := make([]bool, len(l.rules))
	// Only a load has guards to derive. For that, spelled collects the keyword
	// of every state that files a rule (automaton.spelling, each ended by a 0:
	// no symbol) and at[o] is where rule o's begins, plus one.
	guards, at, spelled := l.guards, []uint32(nil), []byte(nil)
	if guards == nil {
		guards, at = make([]guard, len(l.rules)), make([]uint32, len(l.rules))
		spelled = make([]byte, 0, 8*len(l.rules))
	}
	// file marks in in[] the rules a files under a keyword. A state's own
	// rules lead its output list, ahead of the lists merged in down its fail
	// chain, so each rule is met once, at the state its keyword spells.
	file := func(a *automaton, in []bool) error {
		for s, f := range a.fail {
			lo, hi := a.outIdx[s], a.outIdx[s+1]
			if lo == hi {
				continue
			}
			merged := a.outIdx[f+1] - a.outIdx[f]
			if merged > hi-lo {
				return corrupt("state %d lists fewer rules than its fail state %d", s, f)
			}
			begins := uint32(len(spelled) + 1)
			if hi -= merged; hi > lo && at != nil {
				spelled = append(a.spelling(spelled, uint32(s)), 0)
			}
			for _, o := range a.outputs[lo:hi] {
				if hot[o] || in[o] {
					return corrupt("rule %d filed twice, or present in both tiers", o)
				}
				in[o] = true
				if at != nil {
					at[o] = begins
				}
			}
		}
		return nil
	}
	if err := file(l.auto, hot); err != nil {
		return err
	}
	for _, g := range l.auto.generic {
		hot[g] = true
	}
	var inCold []bool
	if cold != nil {
		if n := len(cold.generic); n > 0 {
			return corrupt("cold tier carries %d keyword-less rules (they must be hot)", n)
		}
		inCold = make([]bool, len(l.rules))
		if err := file(cold, inCold); err != nil {
			return err
		}
	}
	var byDomain []uint32
	minBlk := ^uint32(0)
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
		if !r.IsHTTP() || hot[ord] {
			continue
		}
		switch {
		case cold != nil && inCold[ord]:
			if r.Kind != KindHTTPBlock {
				return corrupt("exception rule %d relegated to the cold tier", ord)
			}
			minBlk = min(minBlk, uint32(ord))
		case len(r.Domains) > 0:
			// Always consulted, like the hot tier.
			hot[ord] = true
			byDomain = append(byDomain, uint32(ord))
		default:
			return corrupt("HTTP rule %d is in no automaton", ord)
		}
	}
	l.guards = guards
	if l.dom == nil {
		l.dom = newDomainIndex(l.rules, byDomain)
	}
	if cold != nil {
		l.cold = cold
		l.hot = hot
		l.coldMinBlk = minBlk
	}
	return nil
}

// Tiered reports whether the list carries a hot/cold tier split.
func (l *List) Tiered() bool { return l.cold != nil }

// IsHotRule reports whether the rule at ord is served from the hot tier.
// Every rule of an untiered list counts as hot (there is only one tier).
func (l *List) IsHotRule(ord int) bool {
	return l.hot == nil || ord >= 0 && ord < len(l.hot) && l.hot[ord]
}

// ColdAutomatonBytes returns the cold tier's serialized region (nil for
// untiered lists). Like AutomatonBytes, the slice aliases the automaton
// and must not be modified.
func (l *List) ColdAutomatonBytes() []byte {
	if l.cold == nil {
		return nil
	}
	return l.cold.Bytes()
}

// TierStats describes a list's tier geometry: automaton region sizes and
// HTTP-rule membership counts. For an untiered list everything is "hot".
// DomainRules (served from the page-domain index) and GenericRules (no
// keyword: candidates of every request) are among HotRules; the rest of
// HotRules and all ColdRules are the KeywordRules an automaton finds, of which
// GuardedRules are nominated only where their run stands in its context.
type TierStats struct {
	HotBytes     int
	ColdBytes    int
	HotRules     int
	ColdRules    int
	KeywordRules int
	DomainRules  int
	GenericRules int
	GuardedRules int
}

// TierStats reports the list's tier geometry. HotBytes is the memory the
// staged decision path touches when the hot tier concludes the verdict —
// the "hot working set" the compaction loop minimizes.
func (l *List) TierStats() TierStats {
	st := TierStats{HotBytes: len(l.auto.blob), DomainRules: l.dom.rules, GenericRules: len(l.auto.generic)}
	if l.cold != nil {
		st.ColdBytes = len(l.cold.blob)
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
