package abp

import (
	"fmt"
	"slices"
	"strings"

	"adwars/internal/artifact"
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
// or NewListAttached (attaches a serialized one); nothing is built lazily, so
// a List is safe for concurrent readers — nothing is written after
// construction, to the list or to its rules.
type List struct {
	// Name identifies the list (e.g. "Anti-Adblock Killer").
	Name string

	rules    []*Rule
	auto     *automaton
	rulesCRC uint64
	// dom serves the HTTP rules the automaton does not hold, by page domain;
	// probed with auto on every lookup. Never nil once the list is built.
	dom *domainIndex
	// guards holds, by ordinal, the literal context of the run each rule is
	// filed under (automaton.go: guard), which the scan checks before it
	// nominates the rule. Derived — from the keyword selection at a compile,
	// from the region at a load — never serialized.
	guards []guard

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
		func() { region = buildRegion(l.rules, kws, runs) },
		func() {
			l.rulesCRC = rulesChecksum(l.rules)
			l.guards = ruleGuards(l.rules, kws)
		})
	w, err := walkStates(openBuilt(region, len(l.rules), l.rulesCRC), false)
	if err == nil {
		err = l.attach(w)
	}
	if err != nil {
		panic(fmt.Sprintf("abp: internal: freshly compiled list failed validation: %v", err))
	}
	return l
}

// NewListAttached is NewList for a serialized automaton region: instead of
// rebuilding the probe automaton from the rules (O(rules·keyword)), region
// is validated and attached (O(states) bounds checks, in place over the
// caller's buffer), and what it files is re-derived from its own output sets
// — walkRegion, then attach, the two halves the snapshot loader runs apart,
// the walk beside the rule parse. rulesCRC is the checksum of the rules'
// text (rulesChecksum), which the caller already has: the snapshot loader
// parsed the rules out of a section whose frame checksum is that value by
// definition, so the text is not summed again here. The region must have
// been compiled from exactly these rules — a checksum mismatch, any
// structural damage, or a rule the region files twice, under a run its
// pattern does not have, or not at all where the page-domain index cannot
// serve it is refused with an error wrapping artifact.ErrCorrupt.
func NewListAttached(name string, rules []*Rule, rulesCRC uint64, region []byte) (*List, error) {
	l := indexRules(name, rules)
	l.rulesCRC = rulesCRC
	w, err := walkRegion(region, len(l.rules), rulesCRC, true)
	if err != nil {
		return nil, err
	}
	if err := l.attach(w); err != nil {
		return nil, err
	}
	return l, nil
}

// walked is what walkRegion reads off an automaton region: the automaton,
// and by ordinal where each rule is filed. at[o] is 0 for a rule the
// automaton does not hold and filedGeneric for one of its generic array;
// a rule filed under a keyword has, on a load, the index plus one in spelled
// of where that keyword begins (automaton.spelling, each ended by a 0: no
// symbol), and filedKeyword on a compile, whose guards are known already.
type walked struct {
	auto    *automaton
	at      []uint32
	spelled []byte
	derive  bool
}

const (
	filedKeyword = 1
	filedGeneric = ^uint32(0)
)

// walkRegion opens region (openAutomaton) and walks its states. What the
// automaton files is read off the automaton itself — a rule is filed where a
// state lists it under a keyword of its own, or in the generic array — so no
// membership table needs serializing: the region is self-describing. It
// needs the rule count and checksum only, not the rules, so a load runs it
// while the rules are parsed. derive asks for the keywords a load derives
// guards from.
func walkRegion(region []byte, numRules int, rulesCRC uint64, derive bool) (*walked, error) {
	a, err := openAutomaton(region, numRules, rulesCRC)
	if err != nil {
		return nil, err
	}
	return walkStates(a, derive)
}

// walkStates is walkRegion's walk over an opened automaton. A state's own
// rules lead its output list, ahead of the lists merged in down its fail
// chain, so each rule is met once, at the state its keyword spells. The
// generic array is marked after the states, which must not list its rules.
func walkStates(a *automaton, derive bool) (*walked, error) {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("filing-invalid", format, args...)
	}
	w := &walked{auto: a, at: make([]uint32, a.numRules), derive: derive}
	if derive {
		w.spelled = make([]byte, 0, 8*len(w.at))
	}
	for s, f := range a.fail {
		lo, hi := a.outIdx[s], a.outIdx[s+1]
		if lo == hi {
			continue
		}
		merged := a.outIdx[f+1] - a.outIdx[f]
		if merged > hi-lo {
			return nil, corrupt("state %d lists fewer rules than its fail state %d", s, f)
		}
		hi -= merged
		begins := uint32(filedKeyword)
		if hi > lo && derive {
			begins = uint32(len(w.spelled) + 1)
			w.spelled = append(a.spelling(w.spelled, uint32(s)), 0)
		}
		for _, o := range a.outputs[lo:hi] {
			if w.at[o] != 0 {
				return nil, corrupt("rule %d filed twice", o)
			}
			w.at[o] = begins
		}
	}
	for _, g := range a.generic {
		if w.at[g] != 0 {
			return nil, corrupt("rule %d filed twice", g)
		}
		w.at[g] = filedGeneric
	}
	return w, nil
}

// attach files the list's rules as the walk found them: it validates the
// walked automaton against the rules and installs it, the page-domain index
// and, on a load, the guards. Guards a compile already has (of the selection
// its region was built from) are kept; a load derives them here, from the
// run each rule is found filed under, which is also where a rule filed under
// a run its pattern does not have is caught. Above parallelRules rules the
// rules are filed on every core, a range each, and the page-domain rules
// and the first error joined in range order.
func (l *List) attach(w *walked) error {
	if w.derive {
		l.guards = make([]guard, len(l.rules))
	}
	k := compileWorkers(len(l.rules))
	byDomain, errs := make([][]uint32, k), make([]error, k)
	eachChunk(k, len(l.rules), func(c, lo, hi int) {
		byDomain[c], errs[c] = l.file(w, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	l.auto, l.dom = w.auto, newDomainIndex(l.rules, slices.Concat(byDomain...))
	return nil
}

// file checks where the walk found rules lo to hi-1 filed and, on a load,
// derives their guards. It returns the ordinals of those the page-domain
// index serves, in order, or the error of the first that is filed wrongly.
func (l *List) file(w *walked, lo, hi int) (byDomain []uint32, err error) {
	corrupt := func(format string, args ...any) error {
		return artifact.Corruptf("filing-invalid", format, args...)
	}
	for ord := lo; ord < hi; ord++ {
		r, at := l.rules[ord], w.at[ord]
		if w.derive && at != 0 && at != filedGeneric {
			// The keyword a rule is found filed under must be a run of its
			// pattern, and the run's context there is the rule's guard. The
			// states were walked in their order and the rules are read in
			// theirs, so that neither the region nor the rule text is jumped
			// about in.
			kw := w.spelled[at-1:]
			if span, ok := findRun(r.Pattern, kw); ok {
				l.guards[ord] = ruleGuard(r.Pattern, span)
			} else if _, ok := findRun(strings.ToLower(r.Pattern), kw); !ok {
				// (A region compiled before the folding rule drew its runs
				// from the Unicode-lowered pattern — DESIGN §12 — and is
				// served as it was, unguarded.)
				return nil, corrupt("rule %d is filed under a run its pattern does not have", ord)
			}
		}
		switch {
		case !r.IsHTTP() || at != 0:
		case r.nDomains > 0:
			byDomain = append(byDomain, uint32(ord))
		default:
			return nil, corrupt("HTTP rule %d is in no automaton", ord)
		}
	}
	return byDomain, nil
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

// TierStats describes how a list's HTTP rules reach a probe: filed under an
// automaton keyword (KeywordRules, of which GuardedRules are nominated only
// where their run stands in its context), under their page domains in the
// page-domain index (DomainRules), or as candidates of every request
// (GenericRules).
type TierStats struct {
	// HotBytes is the size of the list's one automaton.
	//
	// Deprecated: kept only because bench/match.go names it; a list has
	// one automaton, and AutomatonBytes is its region.
	HotBytes int
	// ColdBytes is 0.
	//
	// Deprecated: kept only because bench/match.go names it.
	ColdBytes    int
	KeywordRules int
	DomainRules  int
	GenericRules int
	GuardedRules int
}

// TierStats reports how the list's HTTP rules reach a probe.
func (l *List) TierStats() TierStats {
	st := TierStats{HotBytes: len(l.auto.blob), DomainRules: l.dom.rules, GenericRules: len(l.auto.generic)}
	http := 0
	for ord, r := range l.rules {
		if r.IsHTTP() {
			http++
		}
		if l.guards[ord] != 0 {
			st.GuardedRules++
		}
	}
	st.KeywordRules = http - st.DomainRules - st.GenericRules
	return st
}

// CompileTiered returns a copy of the list whose usage counters start empty;
// keep is not called.
//
// Deprecated: kept only because the benchmark (bench/match.go) names it; a
// list has one automaton, so there is nothing to tier.
func (l *List) CompileTiered(keep func(ord int) bool) *List {
	c := *l
	c.usage = nil
	return &c
}

// IsHotRule reports whether ord is an ordinal of the list.
//
// Deprecated: kept only because bench/match.go names it; every rule of a
// list is consulted by every lookup.
func (l *List) IsHotRule(ord int) bool { return ord >= 0 && ord < len(l.rules) }

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
// (see matchCtx.low). When usage counters are enabled the winning rule's
// ordinal is recorded — an atomic add, no allocation.
func (l *List) MatchRequest(q Request) (Decision, *Rule) {
	var buf [matchHitsCap]Hit
	d, r, ord := DecideHits(l.AppendHits(buf[:0], q))
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
//
// The candidates — one scan of the automaton and one lookup of the page-domain
// index into stack scratch, one sort — are verified in insertion order, so
// the verified matches append in linear-scan order with no further sort.
func (l *List) AppendHits(dst []Hit, q Request) []Hit {
	c := matchCtx{q: normalized(q)}
	l.auto.scanInto(&c, l.guards)
	l.dom.scanInto(&c)
	cands := c.sortedCands()
	l.recordProbe(len(cands))
	for _, ord := range cands {
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
