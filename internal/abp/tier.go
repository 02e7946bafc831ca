package abp

import (
	"fmt"

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
// Two membership invariants make the staged probe exact, both enforced at
// attach time and guaranteed by CompileTiered's normalization:
//
//  1. Every exception rule is hot. An Allowed verdict can then conclude
//     from the hot probe alone: the first matching hot exception is the
//     globally first matching exception.
//  2. Every keyword-less HTTP rule is hot. The cold automaton carries no
//     generic bucket (a keyword-less cold rule would never be probed), so
//     a cold rule is always reachable through its keyword.
//
// Cold rules are therefore exactly a subset of keyword-bearing blocking
// rules. coldMinBlk — the lowest cold ordinal — lets a hot block below it
// win without the cold probe at all.

// CompileTiered compiles the list into a tiered copy: keep reports
// whether the rule at an ordinal belongs in the hot tier (typically
// "usage counters saw it fire"). The hot set is normalized with the rules
// correctness requires to stay hot — every exception rule and every
// keyword-less HTTP rule — so any keep predicate (including nil: nothing
// voluntarily hot) yields a semantically identical list. The receiver is
// unchanged; rules are shared, both lists stay safe for concurrent
// matchers.
func (l *List) CompileTiered(keep func(ord int) bool) *List {
	kws := l.kws
	if kws == nil {
		kws = selectKeywords(l.rules)
	}
	hot := make([]bool, len(l.rules))
	cold := make([]bool, len(l.rules))
	for ord, r := range l.rules {
		if !r.IsHTTP() {
			continue
		}
		switch {
		case r.Kind == KindHTTPException,
			kws[ord].none(),
			keep != nil && keep(ord):
			hot[ord] = true
		default:
			cold[ord] = true
		}
	}
	tl := &List{
		Name:        l.Name,
		rules:       l.rules,
		rulesCRC:    l.rulesCRC,
		kws:         kws,
		elemHide:    l.elemHide,
		elemExcept:  l.elemExcept,
		hideIdx:     l.hideIdx,
		hideToggles: l.hideToggles,
	}
	tl.auto = buildAutomaton(l.rules, kws, l.rulesCRC, hot)
	if err := tl.attachCold(buildAutomaton(l.rules, kws, l.rulesCRC, cold)); err != nil {
		// Unreachable: the normalization above establishes every invariant
		// attachCold checks.
		panic(fmt.Sprintf("abp: internal: freshly compiled tiers failed validation: %v", err))
	}
	return tl
}

// attachCold validates the tier membership invariants against the already
// attached hot automaton and installs the cold tier. Membership is
// derived from the automatons themselves (outputs ∪ generic), so no
// separate membership table needs serializing — the snapshot sections are
// self-describing. A nil cold is a flat list: there is nothing to install,
// and the one automaton must hold every HTTP rule itself — which is what
// refuses a tiered list's hot region arriving without its cold one.
func (l *List) attachCold(cold *automaton) error {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("tier-invalid", format, args...)
	}
	hot := make([]bool, len(l.rules))
	for _, o := range l.auto.outputs {
		hot[o] = true
	}
	for _, g := range l.auto.generic {
		hot[g] = true
	}
	var inCold []bool
	minBlk := ^uint32(0)
	if cold != nil {
		if n := len(cold.generic); n > 0 {
			return corrupt("cold tier carries %d keyword-less rules (they must be hot)", n)
		}
		inCold = make([]bool, len(l.rules))
		for _, o := range cold.outputs {
			if hot[o] {
				return corrupt("rule %d present in both tiers", o)
			}
			inCold[o] = true
			if o < minBlk {
				minBlk = o
			}
		}
	}
	for ord, r := range l.rules {
		if !r.IsHTTP() {
			continue
		}
		if hot[ord] {
			continue
		}
		if cold == nil || !inCold[ord] {
			return corrupt("HTTP rule %d is in no automaton", ord)
		}
		if r.Kind != KindHTTPBlock {
			return corrupt("exception rule %d relegated to the cold tier", ord)
		}
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
	if l.hot == nil {
		return true
	}
	return ord >= 0 && ord < len(l.hot) && l.hot[ord]
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
type TierStats struct {
	HotBytes  int
	ColdBytes int
	HotRules  int
	ColdRules int
}

// TierStats reports the list's tier geometry. HotBytes is the memory the
// staged decision path touches when the hot tier concludes the verdict —
// the "hot working set" the compaction loop minimizes.
func (l *List) TierStats() TierStats {
	st := TierStats{HotBytes: len(l.auto.blob)}
	if l.cold == nil {
		for _, r := range l.rules {
			if r.IsHTTP() {
				st.HotRules++
			}
		}
		return st
	}
	st.ColdBytes = len(l.cold.blob)
	for ord, r := range l.rules {
		if !r.IsHTTP() {
			continue
		}
		if l.hot[ord] {
			st.HotRules++
		} else {
			st.ColdRules++
		}
	}
	return st
}
