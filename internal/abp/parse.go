package abp

import (
	"errors"
	"fmt"
	"strings"
)

// Parse errors returned for malformed lines. Callers that ingest whole lists
// should prefer ParseList, which skips comments and collects errors.
var (
	ErrEmptyLine    = errors.New("abp: empty line")
	ErrCommentLine  = errors.New("abp: comment line")
	ErrBadSelector  = errors.New("abp: malformed element hiding selector")
	ErrBadOption    = errors.New("abp: unknown filter option")
	ErrEmptyPattern = errors.New("abp: empty URL pattern")
)

// Parse parses a single filter list line into a Rule. Comment lines ("!",
// "[") return a Rule with KindComment and ErrCommentLine; blank lines return
// ErrEmptyLine. Lines that look like rules but are malformed return a nil
// Rule and a descriptive error. The rule is an allocation of its own, so a
// caller may keep one rule of a list without keeping the rest (History and
// listgen share rules across revisions).
func Parse(line string) (*Rule, error) {
	r := new(Rule)
	err := r.parse(line, nil)
	if err != nil && !errors.Is(err, ErrCommentLine) {
		return nil, err
	}
	return r, err
}

// parse fills the zero Rule r from one filter list line; an HTTP rule's URL
// matcher is built in m, or in an allocation of its own when m is nil. On an
// error other than ErrCommentLine r is left half-filled and must be zeroed
// before it is used again.
func (r *Rule) parse(line string, m *urlMatcher) error {
	r.Raw = line
	line = strings.TrimSpace(line)
	if line == "" {
		return ErrEmptyLine
	}
	if line[0] == '!' || line[0] == '[' {
		r.Kind = KindComment
		return ErrCommentLine
	}

	// Element hiding rules: domains##selector, domains#@#selector.
	// Check before HTTP parsing so "#" inside URLs does not confuse us:
	// the element hiding separator is "##" or "#@#".
	if i := strings.Index(line, "#@#"); i >= 0 {
		return r.parseElemHide(line[:i], line[i+3:], true)
	}
	if i := strings.Index(line, "##"); i >= 0 {
		return r.parseElemHide(line[:i], line[i+2:], false)
	}

	return r.parseHTTP(line, m)
}

// parseElemHide parses the element hiding form. prefix is the (possibly
// empty) comma-separated domain list, sel the CSS selector text.
func (r *Rule) parseElemHide(prefix, sel string, exception bool) error {
	r.Kind = KindElemHide
	if exception {
		r.Kind = KindElemHideException
	}
	r.addDomains(prefix, ",")
	selector, err := ParseSelector(strings.TrimSpace(sel))
	if err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadSelector, sel, err)
	}
	r.Selector = selector
	return nil
}

// addDomains adds the entries of a sep-separated domain list, lower-cased,
// to Domains or, when they begin with '~', to NotDomains.
func (r *Rule) addDomains(list, sep string) {
	for rest, more := list, true; more; {
		var d string
		d, rest, more = strings.Cut(rest, sep)
		d = strings.ToLower(strings.TrimSpace(d))
		switch {
		case d == "":
		case d[0] == '~':
			r.NotDomains = append(r.NotDomains, d[1:])
		default:
			r.Domains = append(r.Domains, d)
		}
	}
}

// parseHTTP parses an HTTP request rule (blocking or "@@" exception).
func (r *Rule) parseHTTP(line string, m *urlMatcher) error {
	r.Kind = KindHTTPBlock
	if strings.HasPrefix(line, "@@") {
		r.Kind = KindHTTPException
		line = line[2:]
	}

	// Split off the "$options" suffix. A '$' inside the pattern is rare in
	// practice; Adblock Plus treats the last '$' as the option separator
	// when the suffix parses as options.
	if i := strings.LastIndexByte(line, '$'); i >= 0 {
		if opts := line[i+1:]; looksLikeOptions(opts) {
			if err := r.parseOptions(opts); err != nil {
				return err
			}
			line = line[:i]
		}
	}

	if strings.HasPrefix(line, "||") {
		r.DomainAnchor = true
		line = line[2:]
	} else if strings.HasPrefix(line, "|") {
		r.StartAnchor = true
		line = line[1:]
	}
	if strings.HasSuffix(line, "|") {
		r.EndAnchor = true
		line = line[:len(line)-1]
	}
	if line == "" {
		return ErrEmptyPattern
	}
	r.Pattern = line
	// Compile the URL matcher now, while the rule is still private to this
	// call: rule objects are shared across list revisions and concurrent
	// readers, so matcher state must never be written lazily at match time.
	if m == nil {
		m = new(urlMatcher)
	}
	*m = r.buildMatcher()
	r.matcher.Store(m)
	return nil
}

// looksLikeOptions reports whether s is plausibly a comma-separated option
// list rather than part of the URL pattern.
func looksLikeOptions(s string) bool {
	if s == "" {
		return false
	}
	for rest, more := s, true; more; {
		var opt string
		opt, rest, more = strings.Cut(rest, ",")
		opt = strings.TrimPrefix(strings.TrimSpace(opt), "~")
		if opt == "" {
			return false
		}
		name := opt
		if i := strings.IndexByte(opt, '='); i >= 0 {
			name = opt[:i]
		}
		if !isOptionName(strings.ToLower(name)) {
			return false
		}
	}
	return true
}

// knownOptions enumerates the filter options the engine understands. Options
// the paper's lists use but that do not affect matching in our substrate
// (e.g. collapse) are accepted and ignored.
var knownOptions = map[string]bool{
	"script": true, "image": true, "stylesheet": true, "object": true,
	"xmlhttprequest": true, "subdocument": true, "document": true,
	"elemhide": true, "popup": true, "other": true, "third-party": true,
	"domain": true, "match-case": true, "collapse": true, "media": true,
	"font": true, "websocket": true, "ping": true, "object-subrequest": true,
	"genericblock": true, "generichide": true,
}

func isOptionName(name string) bool { return knownOptions[name] }

// typeOptions maps option names to request types for content-type filtering.
var typeOptions = map[string]RequestType{
	"script": TypeScript, "image": TypeImage, "stylesheet": TypeStylesheet,
	"object": TypeObject, "xmlhttprequest": TypeXHR,
	"subdocument": TypeSubdocument, "document": TypeDocument,
	"popup": TypePopup, "other": TypeOther, "media": TypeOther,
	"font": TypeOther, "websocket": TypeOther, "ping": TypeOther,
	"object-subrequest": TypeObject,
}

// parseOptions parses the comma-separated option list after '$'.
func (r *Rule) parseOptions(opts string) error {
	for rest, more := opts, true; more; {
		var opt string
		opt, rest, more = strings.Cut(rest, ",")
		opt = strings.TrimSpace(opt)
		neg := strings.HasPrefix(opt, "~")
		if neg {
			opt = opt[1:]
		}
		name, value := opt, ""
		if i := strings.IndexByte(opt, '='); i >= 0 {
			name, value = opt[:i], opt[i+1:]
		}
		name = strings.ToLower(name)
		switch {
		case name == "domain":
			r.addDomains(value, "|")
		case name == "third-party":
			if neg {
				r.ThirdParty = -1
			} else {
				r.ThirdParty = +1
			}
		case name == "match-case":
			r.MatchCase = true
		case name == "elemhide":
			r.DisableElemHide = true
		case name == "generichide":
			r.DisableGenericHide = true
		case typeOptions[name] != "":
			if neg {
				r.NotTypes = append(r.NotTypes, typeOptions[name])
			} else {
				r.Types = append(r.Types, typeOptions[name])
			}
		case isOptionName(name):
			// Recognized but irrelevant to our matcher (collapse, …).
		default:
			return fmt.Errorf("%w: %q", ErrBadOption, opt)
		}
	}
	return nil
}

// ParseList parses an entire filter list body (one rule per line). Comments
// and blank lines are skipped. Malformed rule lines are collected into errs
// but do not abort parsing, matching how adblockers tolerate bad lines. The
// rules of one call share two allocations (see parseLines), so keeping one
// of them keeps them all.
func ParseList(body string) (rules []*Rule, errs []error) {
	return parseLines(body, false)
}

// parseLines is the line loop under ParseList and under the snapshot
// loader: every line of body, split at '\n', through Rule.parse. The rules
// and their URL matchers are two arrays sized from the line count — one
// slab per list, not two allocations per rule. Run strict, it is the
// loader's rule: every line is a rule, so the first line that is blank, a
// comment or malformed is the one error returned, and no rules with it.
func parseLines(body string, strict bool) (rules []*Rule, errs []error) {
	lines := strings.Count(body, "\n") + 1
	rules = make([]*Rule, 0, lines)
	slab := make([]Rule, lines)
	matchers := make([]urlMatcher, lines)
	for rest, more := body, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		r := &slab[len(rules)]
		err := r.parse(line, &matchers[len(rules)])
		if err == nil {
			rules = append(rules, r)
			continue
		}
		*r = Rule{}
		if strict || !errors.Is(err, ErrEmptyLine) && !errors.Is(err, ErrCommentLine) {
			errs = append(errs, fmt.Errorf("line %q: %w", line, err))
			if strict {
				return nil, errs
			}
		}
	}
	return rules, errs
}
