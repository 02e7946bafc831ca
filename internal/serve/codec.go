package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The typed codec of /v1/match and /v1/classify: a decoder for MatchQuery
// and encoders for matchResponse and classifyResponse that know those types
// and nothing else. All answer exactly as encoding/json would
// (FuzzMatchQueryDecode and TestClassifyReplyMatchesEncoder hold them to it).
// The decoder does so by refusing: it takes only the shape every client
// sends and hands any other input, untouched, to json.Unmarshal.

// decode decodes body into sc.q: decodeQuery if it takes body, encoding/json
// if it does not.
func (sc *matchScratch) decode(body []byte) error {
	if sc.decodeQuery(body) {
		return nil
	}
	sc.q = MatchQuery{}
	return json.Unmarshal(body, &sc.q)
}

// decodeQuery decodes body into sc.q if body is a MatchQuery in the plain
// shape — one object, keys exactly "url", "type" and "page_domain" at most
// once each in any order, every value a string of valid UTF-8 whose escapes,
// if any, are the two-character ones or a \u that is not a surrogate half —
// and reports whether it was. On false sc.q is unspecified and the caller
// decodes with encoding/json, so every input this function does not
// understand — case-folded or unknown keys, null, duplicates, anything
// malformed — keeps json's result and json's error text.
//
// The three values are unescaped into one pooled buffer and leave it as one
// string that the fields slice up: one allocation a request. (They cannot
// alias the body: the analytics ring keeps the page domain after the
// request's scratch has gone back to its pool.)
func (sc *matchScratch) decodeQuery(body []byte) bool {
	// Where each field's value lies in sc.strs, and whether its key was
	// seen: url, type, page_domain.
	var lo, hi [3]int
	var seen [3]bool
	sc.strs = sc.strs[:0]

	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			var f int
			switch rest := body[i:]; {
			case hasPrefix(rest, `"url"`):
				f, i = 0, i+len(`"url"`)
			case hasPrefix(rest, `"type"`):
				f, i = 1, i+len(`"type"`)
			case hasPrefix(rest, `"page_domain"`):
				f, i = 2, i+len(`"page_domain"`)
			default:
				return false
			}
			if seen[f] {
				return false
			}
			seen[f] = true
			i = skipSpace(body, i)
			if i == len(body) || body[i] != ':' {
				return false
			}
			i = skipSpace(body, i+1)
			if i == len(body) || body[i] != '"' {
				return false
			}
			var ok bool
			lo[f] = len(sc.strs)
			if sc.strs, i, ok = appendUnquoted(sc.strs, body, i+1); !ok {
				return false
			}
			hi[f] = len(sc.strs)
			i = skipSpace(body, i)
			if i == len(body) {
				return false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return false
			}
			i = skipSpace(body, i+1)
		}
	}
	if skipSpace(body, i) != len(body) {
		return false
	}
	all := string(sc.strs)
	sc.q = MatchQuery{URL: all[lo[0]:hi[0]], Type: all[lo[1]:hi[1]], PageDomain: all[lo[2]:hi[2]]}
	return true
}

func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// appendUnquoted appends to dst the value of the JSON string whose first
// byte after the opening quote is b[i], and returns the index after its
// closing quote. ok is false for anything encoding/json would reject or
// rewrite: a control byte, invalid UTF-8, a malformed escape, a surrogate.
func appendUnquoted(dst, b []byte, i int) (_ []byte, next int, ok bool) {
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return dst, i + 1, true
		case c == '\\':
			if i+1 == len(b) {
				return dst, i, false
			}
			i += 2
			switch b[i-1] {
			case '"', '\\', '/':
				dst = append(dst, b[i-1])
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				if i+4 > len(b) {
					return dst, i, false
				}
				var r rune
				for _, h := range b[i : i+4] {
					switch {
					case '0' <= h && h <= '9':
						r = r<<4 | rune(h-'0')
					case 'a' <= h && h <= 'f':
						r = r<<4 | rune(h-'a'+10)
					case 'A' <= h && h <= 'F':
						r = r<<4 | rune(h-'A'+10)
					default:
						return dst, i, false
					}
				}
				if 0xD800 <= r && r <= 0xDFFF {
					return dst, i, false // json pairs these up, or replaces a lone one
				}
				dst = utf8.AppendRune(dst, r)
				i += 4
			default:
				return dst, i, false
			}
		case c < ' ':
			return dst, i, false
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return dst, i, false
			}
			dst = append(dst, b[i:i+size]...)
			i += size
		}
	}
	return dst, i, false
}

// appendMatchResponse appends r as json.Encoder.Encode writes it, byte for
// byte: fields in declaration order, omitempty honoured, strings escaped
// HTML-safe, a newline at the end.
func appendMatchResponse(b []byte, r *matchResponse) []byte {
	b = append(b, `{"blocked":`...)
	b = strconv.AppendBool(b, r.Blocked)
	b = appendJSONString(append(b, `,"decision":`...), r.Decision)
	b = append(b, `,"lists":`...)
	if r.Lists == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Lists {
			if i > 0 {
				b = append(b, ',')
			}
			lm := &r.Lists[i]
			b = appendJSONString(append(b, `{"list":`...), lm.List)
			b = appendJSONString(append(b, `,"decision":`...), lm.Decision)
			if lm.Rule != "" {
				b = appendJSONString(append(b, `,"rule":`...), lm.Rule)
			}
			if len(lm.MatchedRules) > 0 {
				b = append(b, `,"matched_rules":[`...)
				for j, rule := range lm.MatchedRules {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendJSONString(b, rule)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Degraded != "" {
		b = appendJSONString(append(b, `,"degraded":`...), r.Degraded)
	}
	return appendSnapshot(b, &r.Snapshot)
}

// appendClassifyResponse appends r as json.Encoder.Encode writes it, byte
// for byte, and reports whether it could: a score or decision that is NaN
// or infinite has no JSON form, and the encoder refuses the whole value.
func appendClassifyResponse(b []byte, r *classifyResponse) ([]byte, bool) {
	b = strconv.AppendBool(append(b, `{"anti_adblock":`...), r.AntiAdblock)
	var ok1, ok2 bool
	b, ok1 = appendJSONFloat(append(b, `,"score":`...), r.Score)
	b, ok2 = appendJSONFloat(append(b, `,"decision":`...), r.Decision)
	b = strconv.AppendInt(append(b, `,"features":`...), int64(r.Features), 10)
	if r.Error != "" {
		b = appendJSONString(append(b, `,"error":`...), r.Error)
	}
	return appendSnapshot(b, &r.Snapshot), ok1 && ok2
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on with the exponent's leading zero dropped. ok is false for
// NaN and ±Inf, which json refuses.
func appendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b, true
}

// appendSnapshot appends the "snapshot" member both replies end with, and
// closes the reply.
func appendSnapshot(b []byte, s *SnapshotInfo) []byte {
	b = append(b, `,"snapshot":{`...)
	if m := s.Model; m != nil {
		b = appendJSONString(append(b, `"model":{"feature_set":`...), m.FeatureSet)
		b = strconv.AppendInt(append(b, `,"vocab":`...), int64(m.Vocab), 10)
		b = strconv.AppendInt(append(b, `,"rounds":`...), int64(m.Rounds), 10)
		if m.Version != "" {
			b = appendJSONString(append(b, `,"version":`...), m.Version)
		}
		b = append(b, '}')
	}
	if l := s.Lists; l != nil {
		if s.Model != nil {
			b = append(b, ',')
		}
		b = append(b, `"lists":{`...)
		if l.Label != "" {
			b = append(appendJSONString(append(b, `"label":`...), l.Label), ',')
		}
		b = strconv.AppendInt(append(b, `"lists":`...), int64(l.Lists), 10)
		b = strconv.AppendInt(append(b, `,"rules":`...), int64(l.Rules), 10)
		if l.Version != "" {
			b = appendJSONString(append(b, `,"version":`...), l.Version)
		}
		b = append(b, '}')
	}
	return append(b, "}}\n"...)
}

// jsonSafe marks the ASCII bytes json.Encoder copies into a string as they
// are: everything printable but the quote, the backslash and, because the
// encoder escapes for HTML, <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as json.Encoder quotes a string:
// \\ and \" and \b \f \n \r \t by name, other control bytes and < > & as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029 (they end a line in JavaScript),
// and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
