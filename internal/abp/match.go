package abp

import (
	"slices"
	"strings"
	"unsafe"
)

// Request describes a single HTTP request as seen by the adblocker: the
// request URL, the resource type, and the domain of the page that issued it.
type Request struct {
	// URL is the absolute request URL.
	URL string
	// Type is the resource type (script, image, …). Empty means TypeOther.
	Type RequestType
	// PageDomain is the registrable domain of the page issuing the
	// request, used for $domain= and $third-party evaluation.
	PageDomain string
}

// IsThirdParty reports whether the request host falls outside the page's
// domain (the $third-party notion).
func (q Request) IsThirdParty() bool { return thirdParty(q.URL, lowerDomain(q.PageDomain)) }

// thirdParty is IsThirdParty over a page domain already lowered
// (lowerDomain): the one body the matcher shares.
func thirdParty(url, page string) bool {
	h := HostOf(url)
	return h != "" && page != "" && !domainWithin(h, page)
}

// HostOf extracts the lower-cased host (without port, credentials, or IPv6
// brackets) from an absolute URL. It returns "" when the URL has no
// authority component, and "" for an unterminated IPv6 literal.
func HostOf(rawurl string) string {
	lo, hi, ok := hostSpan(rawurl)
	if !ok {
		return ""
	}
	s := rawurl[lo:hi]
	if strings.HasPrefix(s, "[") {
		// IPv6 literal: the host is the bracketed section; a port can only
		// follow the closing bracket, so the first ':' must not cut it.
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return ""
		}
		return strings.ToLower(s[1:end])
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return lowerDomain(s)
}

// hostSpan returns the bounds in u of its host and port: what follows the
// scheme's "://" (or a leading "//") up to the first of "/?#", less the RFC
// 3986 userinfo — the host begins after the last '@' of the authority, so an
// '@' in the path, query or fragment never moves it ("||host.com" matches
// "http://user@host.com/" and not "http://host.com@evil.com/"). ok is false
// when u has no authority.
func hostSpan(u string) (lo, hi int, ok bool) {
	if i := strings.Index(u, "://"); i >= 0 {
		lo = i + 3
	} else if strings.HasPrefix(u, "//") {
		lo = 2
	} else {
		return 0, 0, false
	}
	hi = len(u)
	if i := strings.IndexAny(u[lo:], "/?#"); i >= 0 {
		hi = lo + i
	}
	if i := strings.LastIndexByte(u[lo:hi], '@'); i >= 0 {
		lo += i + 1
	}
	return lo, hi, true
}

// lowerDomain lower-cases a host or page domain and drops the one trailing
// dot of its fully qualified spelling: "example.com." is example.com to
// every $domain= and $third-party rule.
func lowerDomain(d string) string {
	return strings.TrimSuffix(strings.ToLower(d), ".")
}

// domainWithin reports whether host equals domain or is a subdomain of it.
// Both must already be lower-cased: it runs once per candidate rule per
// $domain= entry, so callers lower their side once per request (HostOf and
// normalized do) and rule domains are lowered when parsed.
func domainWithin(host, domain string) bool {
	n := len(host) - len(domain)
	return n >= 0 && host[n:] == domain && (n == 0 || host[n-1] == '.')
}

// matchScratchCap sizes the matchCtx candidate scratch. A request yields 0.2
// candidates on the paper's lists and a mean of 0.59 on a 70 k-rule
// EasyList-shaped list (p90 2, p99 3, max 7). Only a region compiled before
// the page-domain index runs longer — its path-only $domain= rules share run
// and context, 62 at most in TestCandidateBudget — and what the scratch does
// not hold spills to a heap slice.
const matchScratchCap = 32

// matchCtx caches the per-request derived values — the case-folded URL, the
// third-party verdict — that every candidate rule of a List lookup would
// otherwise recompute, plus the candidate-ordinal scratch the probe stage
// writes into. It is built once per request on
// the caller's stack and never escapes a single call, which is what makes
// the no-match hot path allocation-free: the URL is folded lazily (and
// into lowBuf when it fits), candidates live in the inline array, and
// nothing here reaches the heap unless an exotic input forces the spill or
// a long URL with upper-case letters outgrows the buffer.
type matchCtx struct {
	q Request

	lowered  string // valid when lowState == lowIsString
	lowState uint8
	lowN     int // valid when lowState == lowIsBuf

	third    bool
	hasThird bool

	// hostLo and hostHi bound the URL's host (hostSpan), valid when
	// hostState is hostFound.
	hostState      uint8
	hostLo, hostHi int

	// tbit is the request type's typeBit with typeBitSet added, 0 until
	// typeBit computes it.
	tbit uint16

	ncand int
	spill []uint32
	cand  [matchScratchCap]uint32

	lowBuf [192]byte
}

// low() states. The buffer-backed form is recorded as (lowIsBuf, lowN)
// rather than as a stored string: a string header pointing into lowBuf
// written back into the context would be a self-referential store, which
// escape analysis must treat as a heap store — it alone would move every
// context to the heap and cost the hot path its zero-alloc property. The
// view is rematerialized on each call instead (two instructions).
const (
	lowIsString uint8 = iota + 1
	lowIsBuf
)

// normalized is the request a matchCtx starts from (matchCtx{q:
// normalized(q)}, built in place: a context is most of a kilobyte): the type
// defaults, and the page domain is lowered once here for every domainWithin
// that follows (an already-lower domain, the usual case, is returned as is).
// Lowering of the URL is deferred to the first rule that needs a
// case-insensitive view (see low): the automaton scans the raw URL through
// its case-folding byte classes, so a no-match lookup often never folds.
func normalized(q Request) Request {
	if q.Type == "" {
		q.Type = TypeOther
	}
	q.PageDomain = lowerDomain(q.PageDomain)
	return q
}

// low returns the case-insensitive view of q.URL, computed at most once per
// context. It is the one place that defines case-insensitivity for
// matching: A–Z fold to a–z and every other byte — including any byte
// ≥ 0x80 — is compared as sent. That is what a URL on the wire is (RFC
// 3986: IDN hosts arrive punycoded, everything else percent-encoded), and
// it is the same fold the automaton's byte classes apply, so the probe
// stage and rule verification always judge the same string. Nothing is
// allocated unless the URL both has an upper-case letter and outgrows the
// context's buffer. The unsafe.String view is sound because it aliases the
// context, which outlives every use of the string — nothing retains it
// past the call.
func (c *matchCtx) low() string {
	switch c.lowState {
	case lowIsString:
		return c.lowered
	case lowIsBuf:
		return unsafe.String(&c.lowBuf[0], c.lowN)
	}
	s := c.q.URL
	switch {
	case !hasUpperASCII(s):
		c.lowered = s
	case len(s) <= len(c.lowBuf):
		lowerASCIIInto(c.lowBuf[:len(s)], s)
		c.lowState = lowIsBuf
		c.lowN = len(s)
		return unsafe.String(&c.lowBuf[0], len(s))
	default:
		c.lowered = lowerASCII(s)
	}
	c.lowState = lowIsString
	return c.lowered
}

func hasUpperASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			return true
		}
	}
	return false
}

// lowerASCIIInto writes s into dst (len(dst) == len(s)) with A–Z folded to
// a–z and every other byte unchanged.
func lowerASCIIInto(dst []byte, s string) {
	for i := 0; i < len(s); i++ {
		dst[i] = lowerByte(s[i])
	}
}

// lowerByte is the fold of one byte: A–Z to a–z, every other byte unchanged.
func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		b += 'a' - 'A'
	}
	return b
}

// lowerASCII returns s with A–Z folded to a–z: s itself when it holds none,
// as strings.ToLower does, so a lower-case pattern is not copied. Unlike
// strings.ToLower it never reinterprets bytes ≥ 0x80.
func lowerASCII(s string) string {
	if !hasUpperASCII(s) {
		return s
	}
	b := make([]byte, len(s))
	lowerASCIIInto(b, s)
	return string(b)
}

// pushCand records a candidate rule ordinal from the automaton scan,
// spilling past the inline scratch only on pathological inputs.
func (c *matchCtx) pushCand(ord uint32) {
	if c.ncand < matchScratchCap {
		c.cand[c.ncand] = ord
		c.ncand++
		return
	}
	c.spill = append(c.spill, ord)
}

// sortedCands returns the pushed candidates sorted ascending and
// deduplicated, i.e. in list insertion order — the order that makes
// candidate verification reproduce the linear reference scan. A context is
// probed once: nothing is pushed after the sort.
func (c *matchCtx) sortedCands() []uint32 {
	if len(c.spill) == 0 {
		return sortDedupU32(c.cand[:c.ncand])
	}
	return sortDedupU32(append(c.spill, c.cand[:c.ncand]...))
}

// sortDedupU32 sorts v ascending in place and compacts duplicates,
// returning the shortened prefix. slices.Sort allocates nothing and is an
// insertion sort up to a dozen elements, O(n log n) beyond — candidate
// sets run from none to a few dozen (see matchScratchCap).
func sortDedupU32(v []uint32) []uint32 {
	slices.Sort(v)
	return slices.Compact(v)
}

// typeBitSet marks matchCtx.tbit as computed; no rule mask holds it.
const typeBitSet uint16 = 1 << 15

// typeBit returns the request type's bit, computed at most once per
// context; a type that is none of the request types has none, so it is in
// no rule's positive mask and in no negative one.
func (c *matchCtx) typeBit() uint16 {
	if c.tbit == 0 {
		c.tbit = c.q.Type.typeBit() | typeBitSet
	}
	return c.tbit &^ typeBitSet
}

// hostSpan is hostSpan(c.q.URL), computed at most once per context: it
// depends only on the request, and every "||" rule a lookup tries needs it.
// Folding keeps every byte's offset and leaves "/?#@:" alone, so the span is
// the same in the URL as sent and in its low view.
func (c *matchCtx) hostSpan() (lo, hi int, ok bool) {
	if c.hostState == 0 {
		c.hostState = hostNone
		if lo, hi, ok := hostSpan(c.q.URL); ok {
			c.hostLo, c.hostHi, c.hostState = lo, hi, hostFound
		}
	}
	return c.hostLo, c.hostHi, c.hostState == hostFound
}

// hostSpan() states; the zero value is "not computed yet".
const (
	hostNone uint8 = iota + 1
	hostFound
)

func (c *matchCtx) isThirdParty() bool {
	if !c.hasThird {
		c.third = thirdParty(c.q.URL, c.q.PageDomain)
		c.hasThird = true
	}
	return c.third
}

// MatchRequest reports whether the HTTP rule matches the request. It
// evaluates the $ options (type, third-party, domain) and then the URL
// pattern with its anchors. Element hiding rules never match requests.
func (r *Rule) MatchRequest(q Request) bool {
	c := matchCtx{q: normalized(q)}
	return r.matchCtx(&c)
}

// matchCtx is MatchRequest with the per-request work hoisted into c, so a
// List lookup shares it across every candidate rule.
func (r *Rule) matchCtx(c *matchCtx) bool {
	if !r.IsHTTP() {
		return false
	}
	if r.types|r.notTypes != 0 {
		if t := c.typeBit(); r.types != 0 && r.types&t == 0 || r.notTypes&t != 0 {
			return false
		}
	}
	if r.ThirdParty != 0 && (r.ThirdParty > 0) != c.isThirdParty() {
		return false
	}
	return r.appliesOn(c.q.PageDomain) && r.matchURLCtx(c)
}

// appliesOn reports whether the rule's domain scope — the $domain= option of
// an HTTP rule, the domain prefix of an element hiding rule — admits a page
// domain (lower-cased: lowerDomain): within one of Domains when there are
// any, and within none of NotDomains.
func (r *Rule) appliesOn(pageDomain string) bool {
	for _, d := range r.NotDomains() {
		if domainWithin(pageDomain, d) {
			return false
		}
	}
	for _, d := range r.Domains() {
		if domainWithin(pageDomain, d) {
			return true
		}
	}
	return r.nDomains == 0
}

// matchURLCtx applies the rule's URL pattern (with anchors) to the request
// URL, reusing the context's pre-lowered copy for case-insensitive rules.
// The pattern is compared folded as the URL is (lowerASCII: A–Z only, so a
// rule matches the URL it literally names whatever bytes ≥ 0x80 it holds)
// unless the rule is $match-case. Parse marks the rules whose pattern needs
// no folding (foldFree), nearly all of them; any other rule folds its
// pattern here, into a stack buffer: the rule is never written, so
// concurrent matches are as race-free as any other.
func (r *Rule) matchURLCtx(c *matchCtx) bool {
	pat, u := r.Pattern, c.q.URL
	if !r.MatchCase {
		u = c.low()
		if !r.foldFree && hasUpperASCII(pat) {
			var buf [foldBufCap]byte
			pat = foldInto(buf[:0], pat)
		}
	}
	if r.DomainAnchor {
		lo, hi, ok := c.hostSpan()
		return ok && matchDomainAnchored(pat, u, lo, hi, r.EndAnchor)
	}
	return globMatch(pat, u, r.EndAnchor, !r.StartAnchor)
}

// foldBufCap sizes the stack buffer matchURLCtx folds a pattern into; a
// longer pattern folds onto the heap.
const foldBufCap = 128

// foldInto appends s to dst with A–Z folded and returns the result as a
// string aliasing dst's array — the caller's buffer when s fits in it.
func foldInto(dst []byte, s string) string {
	dst = append(dst, s...)
	for i, b := range dst {
		dst[i] = lowerByte(b)
	}
	return unsafe.String(unsafe.SliceData(dst), len(dst))
}

// matchDomainAnchored implements "||": the pattern must match starting at
// the beginning of the URL's host, u[hostStart:hostEnd] (hostSpan), or
// immediately after a dot inside it.
func matchDomainAnchored(pat, u string, hostStart, hostEnd int, endAnchor bool) bool {
	if globMatch(pat, u[hostStart:], endAnchor, false) {
		return true
	}
	for i := hostStart; i < hostEnd; i++ {
		if u[i] == '.' && globMatch(pat, u[i+1:], endAnchor, false) {
			return true
		}
	}
	return false
}

// isSeparator implements the Adblock Plus '^' placeholder: any character
// that is not a letter, a digit, or one of '_', '-', '.', '%'.
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_', c == '-', c == '.', c == '%':
		return false
	}
	return true
}

// globMatch matches pat against a prefix of s (the whole of s when
// endAnchor is set). '*' matches any run of characters; '^' matches one
// separator character or, zero-width, the end of the URL. With floating
// set, the pattern may begin at any offset of s (a virtual leading '*').
//
// The matcher is an iterative two-pointer scan: it advances greedily and on
// a mismatch backtracks to just after the most recent '*', restarting that
// star's span one byte further. Remembering only the latest star is
// sufficient because extending an earlier star can always be re-expressed
// as extending the latest one, so the walk is O(len(pat)·len(s)) in the
// worst case instead of the exponential recursion it replaces (consecutive
// stars collapse for free: each one just moves the resume point).
func globMatch(pat, s string, endAnchor, floating bool) bool {
	pi, si := 0, 0
	// starPi is the pattern index just after the last '*' seen; starSi the
	// next input offset to retry it from. floating seeds a virtual star
	// before the pattern, which is exactly "try every start offset".
	starPi, starSi := -1, 0
	if floating {
		starPi, starSi = 0, 0
	}
	for {
		if pi == len(pat) {
			if !endAnchor || si == len(s) {
				return true
			}
			// Anchored to the end with input left over: only a wider star
			// span can consume the remainder.
		} else {
			switch c := pat[pi]; c {
			case '*':
				pi++
				starPi, starSi = pi, si
				continue
			case '^':
				if si < len(s) && isSeparator(s[si]) {
					pi++
					si++
					continue
				}
				if si == len(s) {
					// '^' may match the end of the URL (zero-width).
					pi++
					continue
				}
			default:
				if si < len(s) && s[si] == c {
					pi++
					si++
					continue
				}
			}
		}
		// Mismatch: backtrack to the last star, if it can still stretch.
		if starPi < 0 || starSi >= len(s) {
			return false
		}
		starSi++
		// A pattern that resumes with a literal can only resume where the
		// input holds that byte: one IndexByte instead of a retry per offset.
		if starPi < len(pat) && pat[starPi] != '*' && pat[starPi] != '^' {
			i := strings.IndexByte(s[starSi:], pat[starPi])
			if i < 0 {
				return false
			}
			starSi += i
		}
		pi, si = starPi, starSi
	}
}
