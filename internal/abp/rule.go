package abp

import (
	"sort"
	"strings"
)

// Kind identifies the broad category of a filter rule.
type Kind uint8

const (
	// KindInvalid marks lines that could not be parsed as a rule.
	KindInvalid Kind = iota
	// KindComment marks comment lines (starting with "!") and section
	// headers (starting with "[").
	KindComment
	// KindHTTPBlock is an HTTP request blocking rule.
	KindHTTPBlock
	// KindHTTPException is an HTTP request exception rule ("@@" prefix).
	KindHTTPException
	// KindElemHide is an HTML element hiding rule ("##" separator).
	KindElemHide
	// KindElemHideException is an element hiding exception rule ("#@#").
	KindElemHideException
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindComment:
		return "comment"
	case KindHTTPBlock:
		return "http-block"
	case KindHTTPException:
		return "http-exception"
	case KindElemHide:
		return "elemhide"
	case KindElemHideException:
		return "elemhide-exception"
	default:
		return "invalid"
	}
}

// Class is the six-way taxonomy of Figure 1 in the paper. Every non-comment
// rule belongs to exactly one class.
type Class int

const (
	// ClassUnknown is returned for comments and invalid lines.
	ClassUnknown Class = iota
	// ClassHTMLNoDomain is an element hiding rule without a domain prefix
	// (applies on every website), e.g. "###examplebanner".
	ClassHTMLNoDomain
	// ClassHTMLWithDomain is an element hiding rule restricted to one or
	// more domains, e.g. "example.com###examplebanner".
	ClassHTMLWithDomain
	// ClassHTTPPlain is an HTTP rule with neither a domain anchor ("||")
	// nor a domain tag ("$domain="), e.g. "/ads.js?".
	ClassHTTPPlain
	// ClassHTTPAnchor is an HTTP rule with only a domain anchor,
	// e.g. "||example.com^".
	ClassHTTPAnchor
	// ClassHTTPTag is an HTTP rule with only a domain tag,
	// e.g. "/ads.js$domain=example.com".
	ClassHTTPTag
	// ClassHTTPAnchorTag is an HTTP rule with both a domain anchor and a
	// domain tag, e.g. "||cdn.com^$domain=example.com".
	ClassHTTPAnchorTag
)

// classNames indexes Class values; keep in sync with the constants above.
var classNames = [...]string{
	"unknown",
	"HTML rules without domain",
	"HTML rules with domain",
	"HTTP rules without domain anchor and tag",
	"HTTP rules with domain anchor",
	"HTTP rules with domain tag",
	"HTTP rules with domain anchor and tag",
}

// String returns the label used for the class in Figure 1 of the paper.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// AllClasses lists the six rule classes in Figure 1 order.
var AllClasses = []Class{
	ClassHTMLNoDomain,
	ClassHTMLWithDomain,
	ClassHTTPPlain,
	ClassHTTPAnchor,
	ClassHTTPTag,
	ClassHTTPAnchorTag,
}

// RequestType classifies the resource an HTTP request loads, mirroring the
// Adblock Plus content-type options.
type RequestType string

// Request types understood by the matcher. TypeOther covers everything else.
const (
	TypeScript      RequestType = "script"
	TypeImage       RequestType = "image"
	TypeStylesheet  RequestType = "stylesheet"
	TypeObject      RequestType = "object"
	TypeXHR         RequestType = "xmlhttprequest"
	TypeSubdocument RequestType = "subdocument"
	TypeDocument    RequestType = "document"
	TypePopup       RequestType = "popup"
	TypeOther       RequestType = "other"
)

// typeBit is t's bit in a rule's type masks, 0 for a string that is none of
// the request types; "" is TypeOther, as a Request's empty Type is. An
// option that names a type the matcher does not tell apart takes the bit of
// the type it folds onto (typeOptions).
func (t RequestType) typeBit() uint16 {
	switch t {
	case TypeScript:
		return 1 << 0
	case TypeImage:
		return 1 << 1
	case TypeStylesheet:
		return 1 << 2
	case TypeObject:
		return 1 << 3
	case TypeXHR:
		return 1 << 4
	case TypeSubdocument:
		return 1 << 5
	case TypeDocument:
		return 1 << 6
	case TypePopup:
		return 1 << 7
	case TypeOther, "":
		return 1 << 8
	}
	return 0
}

// Valid reports whether t is one of the request types above or "", which
// means TypeOther.
func (t RequestType) Valid() bool { return t.typeBit() != 0 }

// Rule is a single parsed filter rule. The zero value is an invalid rule;
// use Parse to construct rules. A rule is what a list holds per line, so it
// holds only what HTTP matching reads, packed: content types are two bit
// masks, the $domain= (or element hiding prefix) entries one slice, and the
// small fields fill the last two words — 80 bytes in all. Element hiding keeps its
// selectors in an index of its own (Hiding), built only where pages are
// hidden.
type Rule struct {
	// Raw is the original filter list line, unchanged.
	Raw string

	// Pattern is the URL pattern of an HTTP rule with anchors stripped:
	// the text after "||", between "|...|", or the bare pattern. For an
	// element hiding rule it is the selector text (after "##" / "#@#"),
	// which Parse has checked with ParseSelector's grammar.
	Pattern string

	// domains holds the $domain= entries of an HTTP rule or the domain
	// prefix of an element hiding rule, lower-cased: the first nDomains
	// are the positive ones (Domains), the rest were negated with '~'
	// (NotDomains).
	domains []string

	nDomains uint32
	// types and notTypes are the typeBit masks of the positive ($script,
	// $image, …) and negated ($~script, …) content-type options. A zero
	// types applies the rule to every request type.
	types, notTypes uint16

	// Kind is the rule's broad category.
	Kind Kind
	// ThirdParty is +1 for $third-party, -1 for $~third-party, 0 if unset.
	ThirdParty int8

	// DomainAnchor is true for "||" rules (match at a domain boundary of
	// the request host).
	DomainAnchor bool
	// StartAnchor and EndAnchor are true when the pattern is pinned to
	// the start or end of the URL with "|".
	StartAnchor bool
	EndAnchor   bool
	// MatchCase reports the $match-case option.
	MatchCase bool
	// DisableElemHide reports the $elemhide option: an exception rule
	// carrying it turns element hiding off on matching pages.
	DisableElemHide bool
	// DisableGenericHide reports the $generichide option: an exception
	// rule carrying it disables only generic hiding rules (those that
	// name no domain to hide on).
	DisableGenericHide bool

	// foldFree says Pattern is already as the matcher compares it: the
	// rule is $match-case or its pattern holds no A–Z. Parse sets it; a
	// rule built by hand leaves it false and has its pattern folded per
	// match (matchURLCtx), writing nothing.
	foldFree bool
}

// Domains returns the domains the rule's $domain= option or element hiding
// prefix scopes it to, lower-cased. The slice aliases the rule and must
// not be modified.
func (r *Rule) Domains() []string { return r.domains[:r.nDomains:r.nDomains] }

// NotDomains returns the domains negated there with '~', lower-cased. The
// slice aliases the rule and must not be modified.
func (r *Rule) NotDomains() []string { return r.domains[r.nDomains:] }

// IsException reports whether the rule is an exception (allow) rule.
func (r *Rule) IsException() bool {
	return r.Kind == KindHTTPException || r.Kind == KindElemHideException
}

// IsHTTP reports whether the rule matches HTTP requests.
func (r *Rule) IsHTTP() bool {
	return r.Kind == KindHTTPBlock || r.Kind == KindHTTPException
}

// IsElemHide reports whether the rule hides HTML elements.
func (r *Rule) IsElemHide() bool {
	return r.Kind == KindElemHide || r.Kind == KindElemHideException
}

// HasDomainTag reports whether the rule carries a $domain= option or an
// element-hiding domain prefix.
func (r *Rule) HasDomainTag() bool { return len(r.domains) > 0 }

// Class returns the rule's position in the six-way taxonomy of Figure 1.
func (r *Rule) Class() Class {
	switch {
	case r.IsElemHide():
		if r.HasDomainTag() {
			return ClassHTMLWithDomain
		}
		return ClassHTMLNoDomain
	case r.IsHTTP():
		tag := r.HasDomainTag()
		switch {
		case r.DomainAnchor && tag:
			return ClassHTTPAnchorTag
		case r.DomainAnchor:
			return ClassHTTPAnchor
		case tag:
			return ClassHTTPTag
		default:
			return ClassHTTPPlain
		}
	default:
		return ClassUnknown
	}
}

// TargetDomains returns the set of domains the rule is scoped to: the
// positive $domain= / prefix domains plus, for domain-anchored rules, the
// registrable domain extracted from the pattern. The result is sorted and
// deduplicated. Rules with no domain scope return nil.
func (r *Rule) TargetDomains() []string {
	seen := make(map[string]bool)
	for _, d := range r.Domains() {
		seen[d] = true
	}
	if r.DomainAnchor {
		if d := anchorDomain(r.Pattern); d != "" {
			seen[d] = true
		}
	}
	return sortedKeys(seen)
}

// sortedKeys returns the members of a set in order, nil for the empty set.
func sortedKeys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// anchorDomain extracts the host portion at the front of a "||" pattern:
// everything up to the first '/', '^', '*', '$', or '|'.
func anchorDomain(pattern string) string {
	if end := strings.IndexAny(pattern, "/^*$|?"); end >= 0 {
		pattern = pattern[:end]
	}
	host := lowerDomain(pattern)
	if host == "" || strings.ContainsAny(host, " \t") {
		return ""
	}
	return host
}

// String returns the rule in filter list syntax (its original raw line).
func (r *Rule) String() string { return r.Raw }
