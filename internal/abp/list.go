package abp

import (
	"fmt"
)

// Decision is the outcome of matching a request against a List.
type Decision int

const (
	// NoMatch means no rule in the list matched the request.
	NoMatch Decision = iota
	// Blocked means a blocking rule matched and no exception overrode it.
	Blocked
	// Allowed means an exception rule matched (overriding any block).
	Allowed
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Blocked:
		return "blocked"
	case Allowed:
		return "allowed"
	default:
		return "no-match"
	}
}

// List is a compiled filter list: its rules in order, with one match
// engine — an Aho–Corasick automaton over HTTP-rule keywords, beside an index
// by page domain, as the probe stage, total over byte strings — and one
// linear oracle (MatchRequestLinear, MatchingHTTPRulesLinear) the tests hold
// it to. It matches requests only: its element hiding rules are counted and
// served as text, and hidden by a Hiding built from the list (NewHiding)
// where pages are. Build lists with NewList (compiles the automaton)
// or NewListAttached (attaches serialized ones); nothing is built lazily, so
// a List is safe for concurrent readers — nothing is written after
// construction, to the list or to its rules.
type List struct {
	// Name identifies the list (e.g. "Anti-Adblock Killer").
	Name string

	rules    []*Rule
	auto     *automaton
	rulesCRC uint64
	// kws is the keyword selection auto was built from, kept so that
	// CompileTiered builds its tiers from the same choice without making it
	// again. Nil on a list whose automaton was attached from a snapshot.
	kws []kwSpan
	// dom serves the HTTP rules no automaton holds, by page domain; probed
	// with auto on every lookup. Never nil once the list is built.
	dom *domainIndex
	// guards holds, by ordinal, the literal context of the run each rule is
	// filed under (automaton.go: guard), which the scan checks before it
	// nominates the rule. Derived — from kws at a compile, from the regions
	// at a load — never serialized, and shared with CompileTiered's copy.
	guards []guard

	// A tiered list (see tier.go) is the list above plus hot, the small
	// automaton over the rules a hot-only lookup (AppendHitsHot) still
	// consults, filed under the same runs as in auto so that guards serves
	// both; hotRule marks those rules and the index's by ordinal. Both nil
	// for untiered lists.
	hot     *automaton
	hotRule []bool

	// usage, when enabled, counts match verdicts per rule ordinal. Nil
	// (and therefore free) unless EnableUsage was called before serving.
	usage *Usage
}

// NewList compiles a set of parsed rules into a matchable list. Comment and
// invalid rules are ignored. The rules are only read, here and by every
// match, which is what makes the returned List safe for concurrent
// matchers.
func NewList(name string, rules []*Rule) *List {
	l := indexRules(name, rules)
	kws, runs := selectKeywords(l.rules)
	// The rules checksum and the guards are derived while the automaton is
	// built.
	var region []byte
	overlapped(len(l.rules),
		func() { region = buildRegion(l.rules, kws, runs, nil) },
		func() {
			l.rulesCRC = rulesChecksum(l.rules)
			l.guards = ruleGuards(l.rules, kws)
		})
	l.kws, l.auto = kws, openBuilt(region, len(l.rules), l.rulesCRC)
	if err := l.attachHot(nil); err != nil {
		panic(fmt.Sprintf("abp: internal: freshly compiled list failed validation: %v", err))
	}
	return l
}

// NewListAttached is NewList for the snapshot load path, which carries the
// list's serialized automaton regions: instead of rebuilding the probe
// automaton from the rules (O(rules·keyword)), whole is validated and
// attached (O(states) bounds checks, in place over the caller's buffer).
// hot is the hot automaton's region, nil for a flat list; when given, it is
// attached too. What each region files is re-derived from its own output
// sets and the pair's invariants enforced (see attachHot). rulesCRC is the
// checksum of the rules' text (rulesChecksum), which the caller already has:
// the snapshot loader parsed the rules out of a section whose frame checksum
// is that value by definition, so the text is not summed again here. The
// regions must have been compiled from exactly these rules — a checksum
// mismatch, any structural damage, a rule the whole region does not hold or a
// miscompiled pair (an exception left out of hot, a hot rule the whole region
// files elsewhere or not at all) is refused with an error wrapping
// artifact.ErrCorrupt.
func NewListAttached(name string, rules []*Rule, rulesCRC uint64, whole, hot []byte) (*List, error) {
	l := indexRules(name, rules)
	l.rulesCRC = rulesCRC
	var err error
	if l.auto, err = openAutomaton(whole, len(l.rules), l.rulesCRC); err != nil {
		return nil, err
	}
	var h *automaton
	if hot != nil {
		if h, err = openAutomaton(hot, len(l.rules), l.rulesCRC); err != nil {
			return nil, err
		}
	}
	if err := l.attachHot(h); err != nil {
		return nil, err
	}
	return l, nil
}

// indexRules is what both constructors share: the servable rules, in
// order. Their checksum and the automaton are the caller's to compute or
// take, build or attach.
func indexRules(name string, rules []*Rule) *List {
	l := &List{Name: name, rules: make([]*Rule, 0, len(rules))}
	for _, r := range rules {
		switch r.Kind {
		case KindHTTPBlock, KindHTTPException, KindElemHide, KindElemHideException:
			l.rules = append(l.rules, r)
		}
	}
	return l
}

// AutomatonBytes returns the list's whole automaton as its contiguous
// serialized region — the exact bytes NewListAttached accepts. The slice
// aliases the list's automaton and must not be modified.
func (l *List) AutomatonBytes() []byte { return l.auto.Bytes() }

// ParseAndBuild parses a filter list body and compiles it in one step,
// returning the list together with any per-line parse errors.
func ParseAndBuild(name, body string) (*List, []error) {
	rules, errs := ParseList(body)
	return NewList(name, rules), errs
}

// Len returns the number of compiled (non-comment) rules.
func (l *List) Len() int { return len(l.rules) }

// Rules returns the compiled rules in insertion order. The returned slice
// must not be modified.
func (l *List) Rules() []*Rule { return l.rules }

// MatchRequest evaluates the request against the list. Exception rules
// override blocking rules, mirroring adblocker semantics. The rule that
// determined the decision is returned (nil for NoMatch): the first
// matching exception in insertion order, else the first matching block in
// insertion order — the same rule MatchRequestLinear returns.
//
// It is DecideHits over the verification AppendHits runs, the one decision
// the serving data plane makes too: one case-folded scan of the raw URL by
// the compiled automaton and a lookup of the page domain (probe) leave every
// candidate rule's ordinal in stack scratch, and the verified hits land in a
// stack buffer, so a lookup performs zero heap allocations unless more than
// matchHitsCap rules match. URL bytes are matched as sent — only A–Z folds
// (see matchCtx.low). A tiered list answers from its whole automaton,
// exactly as its flat list does. When usage counters are enabled the winning
// rule's ordinal is recorded — an atomic add, no allocation.
func (l *List) MatchRequest(q Request) (Decision, *Rule) {
	var buf [matchHitsCap]Hit
	d, r, ord := DecideHits(l.appendHits(buf[:0], q, l.auto))
	l.RecordUsage(ord)
	return d, r
}

// matchHitsCap sizes MatchRequest's hit buffer: a request matches a handful
// of rules at most (see matchScratchCap); more spill to the heap.
const matchHitsCap = 16

// MatchRequestLinear is MatchRequest without the automaton: every HTTP rule
// is tried in insertion order. With MatchingHTTPRulesLinear it is the
// reference oracle the differential tests and the benchmark hold the
// automaton to; production paths use MatchRequest.
func (l *List) MatchRequestLinear(q Request) (Decision, *Rule) {
	c := matchCtx{q: normalized(q)}
	for _, r := range l.rules {
		if r.Kind == KindHTTPException && r.matchCtx(&c) {
			return Allowed, r
		}
	}
	for _, r := range l.rules {
		if r.Kind == KindHTTPBlock && r.matchCtx(&c) {
			return Blocked, r
		}
	}
	return NoMatch, nil
}

// Hit is one matching HTTP rule together with its insertion ordinal in
// the list — the currency of the serving data plane, which needs the
// ordinal both to derive the winning rule (DecideHits) and to record
// usage (RecordUsage) without re-probing the list.
type Hit struct {
	Rule *Rule
	Ord  int
}

// AppendHits appends every HTTP rule (blocking and exception) that matches
// the request to dst, in insertion order, and returns the extended slice.
// One AppendHits pass gives a caller the full matched set — what the
// coverage measurement records — AND, via DecideHits, the exact verdict
// MatchRequest would return, so the serving layer probes each list once
// per request instead of twice. With a pre-sized dst nothing is allocated.
func (l *List) AppendHits(dst []Hit, q Request) []Hit {
	return l.appendHits(dst, q, l.auto)
}

// AppendHitsHot is AppendHits restricted to the hot automaton: the long
// tail of rules usage telemetry saw never fire is skipped entirely. It is
// the overload governor's brownout match path (ladder level L2+): a scan
// of the small region instead of the whole one, at the cost of possibly
// missing a non-hot blocking rule. The degradation is one-sided by the tier
// invariants (every exception and every keyword-less rule is hot): an
// Allowed verdict is exact, a Blocked verdict is exact, and the only
// possible drift is a non-hot block reported as NoMatch. On an untiered
// list (no hot automaton) the result is identical to AppendHits.
func (l *List) AppendHitsHot(dst []Hit, q Request) []Hit {
	if l.hot != nil {
		return l.appendHits(dst, q, l.hot)
	}
	return l.appendHits(dst, q, l.auto)
}

// probe is the probe stage of every lookup: one scan of a — the list's whole
// automaton, or its hot one — and of the page-domain index into the scratch,
// one sort. The candidates come back in insertion order.
func (l *List) probe(c *matchCtx, a *automaton) []uint32 {
	a.scanInto(c, l.guards)
	l.dom.scanInto(c)
	cands := c.sortedCands()
	l.recordProbe(len(cands))
	return cands
}

// appendHits verifies a's candidates in insertion order, so the verified
// matches append in linear-scan order with no further sort.
func (l *List) appendHits(dst []Hit, q Request, a *automaton) []Hit {
	c := matchCtx{q: normalized(q)}
	for _, ord := range l.probe(&c, a) {
		if r := l.rules[ord]; r.matchCtx(&c) {
			dst = append(dst, Hit{r, int(ord)})
		}
	}
	return dst
}

// DecideHits derives the match verdict from an AppendHits result: the
// first matching exception in insertion order wins, else the first
// matching block — the same rule (and ordinal) MatchRequest returns. The
// ordinal is -1 for NoMatch, so it can feed RecordUsage unconditionally.
func DecideHits(hits []Hit) (Decision, *Rule, int) {
	for _, h := range hits {
		if h.Rule.Kind == KindHTTPException {
			return Allowed, h.Rule, h.Ord
		}
	}
	for _, h := range hits {
		if h.Rule.Kind == KindHTTPBlock {
			return Blocked, h.Rule, h.Ord
		}
	}
	return NoMatch, nil, -1
}

// MatchingHTTPRulesLinear is the all-matches half of the reference oracle:
// every matching HTTP rule in insertion order, the set AppendHits must
// reproduce.
func (l *List) MatchingHTTPRulesLinear(q Request) []*Rule {
	c := matchCtx{q: normalized(q)}
	var out []*Rule
	for _, r := range l.rules {
		if r.IsHTTP() && r.matchCtx(&c) {
			out = append(out, r)
		}
	}
	return out
}

// CountByClass tallies the list's rules by Figure 1 class.
func (l *List) CountByClass() map[Class]int {
	out := make(map[Class]int, len(AllClasses))
	for _, r := range l.rules {
		out[r.Class()]++
	}
	return out
}

// Domains returns the sorted set of domains targeted by any rule in the
// list (per Rule.TargetDomains). This feeds the §3.3 domain-overlap and
// Table 1 / Figure 2 analyses.
func (l *List) Domains() []string {
	seen := make(map[string]bool)
	for _, r := range l.rules {
		for _, d := range r.TargetDomains() {
			seen[d] = true
		}
	}
	return sortedKeys(seen)
}

// RulesForDomain returns the rules in a list that target the given domain,
// in insertion order — the §3.3 comparison of how two lists implement
// rules for the same site (Codes 9 and 10 in the paper).
func (l *List) RulesForDomain(domain string) []*Rule {
	var out []*Rule
	for _, r := range l.rules {
		for _, d := range r.TargetDomains() {
			if d == domain {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// ExceptionDomainSplit returns the sets of domains that appear in exception
// rules and in non-exception rules (a domain can appear in both). §3.3 uses
// the ratio of the two set sizes.
func (l *List) ExceptionDomainSplit() (exception, nonException []string) {
	exc := make(map[string]bool)
	non := make(map[string]bool)
	for _, r := range l.rules {
		for _, d := range r.TargetDomains() {
			if r.IsException() {
				exc[d] = true
			} else {
				non[d] = true
			}
		}
	}
	return sortedKeys(exc), sortedKeys(non)
}
