package abp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"unsafe"
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
	err := r.parse(line, nil)
	if err != nil && !errors.Is(err, ErrCommentLine) {
		return nil, err
	}
	return r, err
}

// parse fills the zero Rule r from one filter list line, its domains from
// the arena a (nil: an allocation of the rule's own). On an error other than
// ErrCommentLine r is left half-filled and must be zeroed before it is used
// again.
func (r *Rule) parse(line string, a *domainArena) error {
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
	if i, n := hidingSeparator(line); n > 0 {
		return r.parseElemHide(line[:i], line[i+n:], n == 3, a)
	}
	return r.parseHTTP(line, a)
}

// hidingSeparator finds the element hiding separator of a line in one walk
// over its '#'s: the first "#@#" at i (n = 3), else the first "##" (n = 2),
// else none (n = 0).
func hidingSeparator(line string) (i, n int) {
	i = -1
	for j := strings.IndexByte(line, '#'); j >= 0 && j+1 < len(line); {
		switch line[j+1] {
		case '@':
			if j+2 < len(line) && line[j+2] == '#' {
				return j, 3
			}
		case '#':
			if i < 0 {
				i = j
			}
		}
		k := strings.IndexByte(line[j+1:], '#')
		if k < 0 {
			break
		}
		j += 1 + k
	}
	if i < 0 {
		return -1, 0
	}
	return i, 2
}

// parseElemHide parses the element hiding form. prefix is the (possibly
// empty) comma-separated domain list, sel the CSS selector text.
func (r *Rule) parseElemHide(prefix, sel string, exception bool, a *domainArena) error {
	r.Kind = KindElemHide
	if exception {
		r.Kind = KindElemHideException
	}
	r.addDomains(prefix, ",", a)
	r.Pattern = strings.TrimSpace(sel)
	if err := scanSelector(r.Pattern, nil); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadSelector, sel, err)
	}
	return nil
}

// addDomains adds the entries of a sep-separated domain list, lower-cased,
// to Domains or, when they begin with '~', to NotDomains: each in the order
// it is listed, the positive ones in front. The first pass counts the two
// kinds, so that the entries go straight into their places in one slice
// taken from a.
func (r *Rule) addDomains(list, sep string, a *domainArena) {
	pos, neg := 0, 0
	for rest, more := list, true; more; {
		var d string
		d, rest, more = strings.Cut(rest, sep)
		switch d = strings.TrimSpace(d); {
		case d == "":
		case d[0] == '~':
			neg++
		default:
			pos++
		}
	}
	if pos+neg == 0 {
		return
	}
	// A rule with a second $domain= option keeps the first one's entries
	// ahead of this one's, kind by kind.
	old, oldPos := r.domains, int(r.nDomains)
	ds := a.take(len(old) + pos + neg)
	p := copy(ds, old[:oldPos])
	n := oldPos + pos + copy(ds[oldPos+pos:], old[oldPos:])
	for rest, more := list, true; more; {
		var d string
		d, rest, more = strings.Cut(rest, sep)
		switch d = strings.ToLower(strings.TrimSpace(d)); {
		case d == "":
		case d[0] == '~':
			ds[n] = d[1:]
			n++
		default:
			ds[p] = d
			p++
		}
	}
	r.domains, r.nDomains = ds, uint32(p)
}

// domainArena hands out the domains slices of the rules one chunk of lines
// parses, from blocks of domainBlock entries: a slice per block, not one per
// rule. A nil arena allocates each slice on its own.
type domainArena struct {
	free []string // the current block's entries no rule has taken
	// fresh says a block was started since the chunk last looked.
	fresh bool
}

const domainBlock = 256

// take returns n entries of the arena's for one rule's domains.
func (a *domainArena) take(n int) []string {
	if a == nil {
		return make([]string, n)
	}
	if n > len(a.free) {
		a.free, a.fresh = make([]string, max(n, domainBlock)), true
	}
	ds := a.free[:n:n]
	a.free = a.free[n:]
	return ds
}

// trim moves the domains of rules, the rules that took theirs from the
// current block, into one allocation of exactly their size, so that the
// block's untaken tail is not kept for as long as the rules are.
func (a *domainArena) trim(rules []Rule) {
	if len(a.free) == 0 {
		return
	}
	n := 0
	for i := range rules {
		n += len(rules[i].domains)
	}
	kept := make([]string, n)
	for i := range rules {
		if r := &rules[i]; len(r.domains) > 0 {
			m := copy(kept, r.domains)
			r.domains, kept = kept[:m:m], kept[m:]
		}
	}
	a.free = nil
}

// parseHTTP parses an HTTP request rule (blocking or "@@" exception).
func (r *Rule) parseHTTP(line string, a *domainArena) error {
	r.Kind = KindHTTPBlock
	if strings.HasPrefix(line, "@@") {
		r.Kind = KindHTTPException
		line = line[2:]
	}

	// Split off the "$options" suffix. A '$' inside the pattern is rare in
	// practice; Adblock Plus treats the last '$' as the option separator
	// when the suffix parses as options.
	if i := strings.LastIndexByte(line, '$'); i >= 0 {
		if ok, err := r.parseOptions(line[i+1:], a); err != nil {
			return err
		} else if ok {
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
	r.foldFree = r.MatchCase || !hasUpper(line)
	return nil
}

// hasUpper is hasUpperASCII eight bytes at a time, for the parse: a byte
// below 0x80 is A–Z when adding 63 to it sets its high bit and adding 37
// does not, and no sum carries into the next byte.
func hasUpper(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(s[i:]), 8))
		if t := x &^ highs; (t+63*ones)&^(t+37*ones)&^x&highs != 0 {
			return true
		}
	}
	return hasUpperASCII(s[i:])
}

// typeOptions maps option names to request types for content-type filtering.
var typeOptions = map[string]RequestType{
	"script": TypeScript, "image": TypeImage, "stylesheet": TypeStylesheet,
	"object": TypeObject, "xmlhttprequest": TypeXHR,
	"subdocument": TypeSubdocument, "document": TypeDocument,
	"popup": TypePopup, "other": TypeOther, "media": TypeOther,
	"font": TypeOther, "websocket": TypeOther, "ping": TypeOther,
	"object-subrequest": TypeObject,
}

// parseOptions reads opts, the text after a line's last '$', as its option
// list, each option lower-cased and looked up once. It reports false, and
// leaves r as it was, when opts is no comma-separated list of the options
// the engine understands: the content types (typeOptions) and the flags
// below — options the paper's lists use but that do not affect matching in
// our substrate (e.g. collapse) are accepted and ignored — and the '$' is
// then part of the URL pattern. A negated flag does not take the flag's
// meaning: as in Adblock Plus, ~match-case leaves the rule
// case-insensitive, ~elemhide and ~generichide are inverted types that turn
// nothing off, and a negated $domain= is no option at all — an error, once
// the list has been read as options.
func (r *Rule) parseOptions(opts string, a *domainArena) (ok bool, err error) {
	var o Rule // the flags and types, until every option is known
	var domainBuf [2]string
	domains := domainBuf[:0] // the $domain= values
	for rest, more := opts, opts != ""; more; {
		var opt string
		opt, rest, more = strings.Cut(rest, ",")
		opt = strings.TrimSpace(opt)
		neg := strings.HasPrefix(opt, "~")
		if neg {
			opt = opt[1:]
		}
		name, value, _ := strings.Cut(opt, "=")
		var buf [24]byte
		switch name = lowerOption(&buf, name); {
		case opt == "":
			return false, nil
		case name == "domain" && neg:
			if err == nil {
				err = fmt.Errorf("%w: %q", ErrBadOption, "~"+opt)
			}
		case name == "domain":
			domains = append(domains, value)
		case name == "third-party" && neg:
			o.ThirdParty = -1
		case name == "third-party":
			o.ThirdParty = +1
		case neg && (name == "match-case" || name == "elemhide" || name == "generichide"):
		case name == "match-case":
			o.MatchCase = true
		case name == "elemhide":
			o.DisableElemHide = true
		case name == "generichide":
			o.DisableGenericHide = true
		case name == "collapse" || name == "genericblock":
		default:
			t, known := typeOptions[name]
			if !known {
				return false, nil
			}
			if neg {
				o.notTypes |= t.typeBit()
			} else {
				o.types |= t.typeBit()
			}
		}
	}
	if opts == "" || err != nil {
		return opts != "", err
	}
	r.ThirdParty, r.MatchCase, r.DisableElemHide, r.DisableGenericHide = o.ThirdParty, o.MatchCase, o.DisableElemHide, o.DisableGenericHide
	r.types, r.notTypes = o.types, o.notTypes
	for _, d := range domains {
		r.addDomains(d, "|", a)
	}
	return true, nil
}

// lowerOption lower-cases an option name as Adblock Plus reads it: in buf
// when it is short ASCII, by strings.ToLower otherwise (which folds a few
// non-ASCII letters, the Kelvin sign among them, onto ASCII ones).
func lowerOption(buf *[24]byte, name string) string {
	if len(name) > len(buf) {
		return strings.ToLower(name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			return strings.ToLower(name)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return unsafe.String(&buf[0], len(name))
}

// ParseList parses an entire filter list body (one rule per line). Comments
// and blank lines are skipped. Malformed rule lines are collected into errs
// but do not abort parsing, matching how adblockers tolerate bad lines. The
// rules of one chunk of lines share one allocation (see parseLines), so
// keeping one of them keeps the chunk's.
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
// loader: every line through Rule.parse, one chunk per core (fanOut). Each
// chunk allocates, and so zeroes, its rules on its own goroutine — one slab
// per chunk, not an allocation per rule — and takes their domains from an
// arena of its own; rules and errors are joined in chunk order. Run strict,
// it is the loader's rule: every line is a rule, so the earliest line that
// is blank, a comment or malformed is the one error returned, and no rules
// with it.
func parseLines(chunks []lineChunk, lines int, strict bool) (rules []*Rule, errs []error) {
	if lines == 0 {
		return nil, nil
	}
	all := make([]*Rule, lines)
	fanOut(len(chunks), func(i int) { chunks[i].parse(all[chunks[i].first:], strict) })
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

// parse parses the chunk's lines into rules from its own slab, filing the
// first c.n of them in all.
func (c *lineChunk) parse(all []*Rule, strict bool) {
	slab := make([]Rule, c.lines)
	var a domainArena
	// block is the first rule whose domains the arena's current block holds.
	block := 0
	defer func() { a.trim(slab[block:c.n]) }()
	for rest, more := c.text, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		r := &slab[c.n]
		err := r.parse(line, &a)
		if err == nil {
			if a.fresh {
				block, a.fresh = c.n, false
			}
			all[c.n] = r
			c.n++
			continue
		}
		*r = Rule{}
		if strict || !errors.Is(err, ErrEmptyLine) && !errors.Is(err, ErrCommentLine) {
			c.errs = append(c.errs, fmt.Errorf("line %q: %w", line, err))
			if strict {
				return
			}
		}
	}
}
