package abp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// listgen share rules across revisions). Everything matching reads is set
// here, so the rule is never written again and may be shared by concurrent
// readers.
func Parse(line string) (*Rule, error) {
	r := new(Rule)
	err := r.parse(line)
	if err != nil && !errors.Is(err, ErrCommentLine) {
		return nil, err
	}
	return r, err
}

// parse fills the zero Rule r from one filter list line. On an error other
// than ErrCommentLine r is left half-filled and must be zeroed before it is
// used again.
func (r *Rule) parse(line string) error {
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

	return r.parseHTTP(line)
}

// parseElemHide parses the element hiding form. prefix is the (possibly
// empty) comma-separated domain list, sel the CSS selector text.
func (r *Rule) parseElemHide(prefix, sel string, exception bool) error {
	r.Kind = KindElemHide
	if exception {
		r.Kind = KindElemHideException
	}
	r.addDomains(prefix, ",")
	r.Pattern = strings.TrimSpace(sel)
	if err := scanSelector(r.Pattern, nil); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadSelector, sel, err)
	}
	return nil
}

// addDomains adds the entries of a sep-separated domain list, lower-cased,
// to Domains or, when they begin with '~', to NotDomains: each in the order
// it is listed, the positive ones in front.
func (r *Rule) addDomains(list, sep string) {
	for rest, more := list, true; more; {
		var d string
		d, rest, more = strings.Cut(rest, sep)
		d = strings.ToLower(strings.TrimSpace(d))
		switch {
		case d == "":
		case d[0] == '~':
			r.domains = append(r.domains, d[1:])
		default:
			r.domains = slices.Insert(r.domains, int(r.nDomains), d)
			r.nDomains++
		}
	}
}

// parseHTTP parses an HTTP request rule (blocking or "@@" exception).
func (r *Rule) parseHTTP(line string) error {
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
	r.foldFree = r.MatchCase || !hasUpperASCII(line)
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

// knownOptions enumerates the filter options the engine understands beside
// the content types (typeOptions). Options the paper's lists use but that do
// not affect matching in our substrate (e.g. collapse) are accepted and
// ignored.
var knownOptions = map[string]bool{
	"elemhide": true, "third-party": true, "domain": true, "match-case": true,
	"collapse": true, "genericblock": true, "generichide": true,
}

func isOptionName(name string) bool { return knownOptions[name] || typeOptions[name] != "" }

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
		// A negated flag does not take the flag's meaning: as in Adblock
		// Plus, ~match-case leaves the rule case-insensitive, ~elemhide
		// and ~generichide are inverted types that turn nothing off, and
		// a negated $domain= is no option at all.
		switch {
		case name == "domain" && neg:
			return fmt.Errorf("%w: %q", ErrBadOption, "~"+opt)
		case name == "domain":
			r.addDomains(value, "|")
		case name == "third-party":
			if neg {
				r.ThirdParty = -1
			} else {
				r.ThirdParty = +1
			}
		case neg && (name == "match-case" || name == "elemhide" || name == "generichide"):
		case name == "match-case":
			r.MatchCase = true
		case name == "elemhide":
			r.DisableElemHide = true
		case name == "generichide":
			r.DisableGenericHide = true
		case typeOptions[name] != "":
			if neg {
				r.notTypes |= typeOptions[name].typeBit()
			} else {
				r.types |= typeOptions[name].typeBit()
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
// rules of one call share one allocation (see parseLines), so keeping one of
// them keeps them all.
func ParseList(body string) (rules []*Rule, errs []error) {
	chunks, lines := cutLines(body)
	return parseLines(chunks, lines, false)
}

// parallelLines is the body size, in lines, from which cutLines gives every
// core a chunk: below it a parse takes about a millisecond.
const parallelLines = 4096

// lineChunk is a contiguous run of a body's lines, text without its last
// newline, and what parsing it left: n rules, filed from index first on, and
// its errors in line order.
type lineChunk struct {
	text         string
	first, lines int
	n            int
	errs         []error
}

// cutLines cuts body at line boundaries into GOMAXPROCS chunks about equal
// in bytes, one below parallelLines lines, and counts each chunk's lines:
// the one count of body's lines, returned beside the chunks.
func cutLines(body string) (chunks []lineChunk, lines int) {
	workers := runtime.GOMAXPROCS(0)
	size := len(body)/workers + 1
	chunks = make([]lineChunk, 0, workers)
	for rest, last := body, false; !last; {
		c := lineChunk{text: rest, first: lines}
		last = true
		if len(chunks) < workers-1 && len(rest) > size {
			if i := strings.IndexByte(rest[size:], '\n'); i >= 0 {
				c.text, rest, last = rest[:size+i], rest[size+i+1:], false
			}
		}
		c.lines = strings.Count(c.text, "\n") + 1
		lines += c.lines
		chunks = append(chunks, c)
	}
	if lines < parallelLines {
		chunks = append(chunks[:0], lineChunk{text: body, lines: lines})
	}
	return chunks, lines
}

// parseLines is the line loop under ParseList and under the snapshot
// loader: every line through Rule.parse, each chunk after the first on a
// goroutine of its own. The rules are one array sized from the line count —
// one slab per list, not an allocation per rule — each chunk filling its
// own range; rules and errors are joined in chunk order. Run strict, it is
// the loader's rule: every line is a rule, so the earliest line that is
// blank, a comment or malformed is the one error returned, and no rules
// with it.
func parseLines(chunks []lineChunk, lines int, strict bool) (rules []*Rule, errs []error) {
	all := make([]*Rule, lines)
	slab := make([]Rule, lines)
	parse := func(c *lineChunk) {
		for rest, more := c.text, true; more; {
			var line string
			line, rest, more = strings.Cut(rest, "\n")
			at := c.first + c.n
			err := slab[at].parse(line)
			if err == nil {
				all[at] = &slab[at]
				c.n++
				continue
			}
			slab[at] = Rule{}
			if strict || !errors.Is(err, ErrEmptyLine) && !errors.Is(err, ErrCommentLine) {
				c.errs = append(c.errs, fmt.Errorf("line %q: %w", line, err))
				if strict {
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(chunks); i++ {
		wg.Add(1)
		go func(c *lineChunk) {
			defer wg.Done()
			parse(c)
		}(&chunks[i])
	}
	parse(&chunks[0])
	wg.Wait()
	n := 0
	for _, c := range chunks {
		if strict && len(c.errs) > 0 {
			return nil, c.errs
		}
		n += copy(all[n:], all[c.first:c.first+c.n])
		errs = append(errs, c.errs...)
	}
	clear(all[n:])
	return all[:n], errs
}
