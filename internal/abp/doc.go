// Package abp implements the Adblock Plus filter list syntax: parsing,
// classification, and matching of HTTP request filter rules and HTML
// element-hiding rules, including exception rules.
//
// The package is the substrate for every filter-list analysis in the paper:
// the six-way rule taxonomy of Figure 1 (HTML rules with/without domain,
// HTTP rules with domain anchor, domain tag, both, or neither), the
// exception/non-exception split of §3.3, and the rule matching used by the
// retrospective (§4.2) and live (§4.3) coverage measurements.
//
// The central types are Rule (a single parsed filter rule), List (a compiled
// rule set with exception semantics: one automaton that finds the
// candidate rules for a URL, one linear oracle the tests hold it to), Hiding
// (a list's element hiding rules indexed by selector, built apart from the
// list where pages are hidden), and History (a time-ordered sequence of list
// revisions, used to replay the list as it existed at any point in the
// measurement window).
package abp
