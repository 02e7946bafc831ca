package jsast

import (
	"regexp"
	"strconv"
	"strings"
)

// maxUnpackDepth bounds recursive unpacking of nested eval payloads.
const maxUnpackDepth = 5

// maxUnpackBytes bounds the source text one Unpack call decodes, summed over
// every payload at every nesting level. A packer payload names dictionary
// words by index, so its decoded size is the product of two things the
// sender chooses: a 1 MiB script of `0 0 0 …` over one half-megabyte word
// asks for 128 GB. The bound is the largest body /v1/classify accepts by
// default, so unpacking can at most double what parsing a request may cost;
// packers exist to shrink scripts by about half, which leaves room for any
// packed script under 400 KiB — the paper's are a few tens.
const maxUnpackBytes = 1 << 20

// Unpack finds dynamically generated code in the program — eval() of string
// payloads, unescape()-encoded payloads, and Dean Edwards p.a.c.k.e.r
// payloads — parses it, and appends the recovered statements to the program
// body so that feature extraction sees the unpacked code. It reproduces the
// effect of the paper's V8 script.parsed interception statically.
//
// It returns the number of payloads that were successfully unpacked. A
// payload that does not parse, or that would take the call past
// maxUnpackBytes of decoded source, is left as the script wrote it.
func Unpack(prog *Program) int {
	budget := maxUnpackBytes
	return unpack(prog, 0, &budget)
}

// unpack decodes and appends prog's payloads; budget is what is left of
// maxUnpackBytes, and every payload decoded is taken out of it.
func unpack(prog *Program, depth int, budget *int) int {
	// Nine scripts in ten call no eval, and Parse has already said so.
	if depth >= maxUnpackDepth || prog.noEval {
		return 0
	}
	var payloads []string
	Inspect(prog, func(n Node) bool {
		call, ok := n.(*Call)
		if !ok {
			return true
		}
		if id, ok := call.Callee.(*Ident); !ok || id.Name != "eval" || len(call.Args) != 1 {
			return true
		}
		if src, ok := decodePayload(call.Args[0], *budget); ok {
			*budget -= len(src)
			payloads = append(payloads, src)
		}
		return true
	})
	count := 0
	for _, src := range payloads {
		sub, err := Parse(src)
		if err != nil {
			continue
		}
		count += 1 + unpack(sub, depth+1, budget)
		prog.Body = append(prog.Body, sub.Body...)
	}
	return count
}

// ParseAndUnpack parses src and unpacks dynamic payloads in one step.
func ParseAndUnpack(src string) (*Program, int, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, 0, err
	}
	n := Unpack(prog)
	return prog, n, nil
}

// decodePayload statically evaluates the argument of an eval() call to a
// source string, handling the encodings anti-adblock scripts use in the
// wild: plain string literals, '+' concatenation chains, unescape(),
// String.fromCharCode(), and p.a.c.k.e.r bootstraps. A payload longer than
// limit bytes decoded is not a payload.
func decodePayload(arg Node, limit int) (string, bool) {
	// A folded string is no longer than the source it was folded from, so it
	// is measured after the fact; a packer's output is not, so decodePacker
	// stops at the limit.
	if s, ok := foldString(arg); ok {
		return s, len(s) <= limit
	}
	return decodePacker(arg, limit)
}

// foldString constant-folds an expression to a string, if possible.
func foldString(n Node) (string, bool) {
	switch v := n.(type) {
	case *Literal:
		if v.Kind == LitString {
			return v.Value, true
		}
		return "", false
	case *Binary:
		if v.Op != "+" {
			return "", false
		}
		l, ok := foldString(v.L)
		if !ok {
			return "", false
		}
		r, ok := foldString(v.R)
		if !ok {
			return "", false
		}
		return l + r, true
	case *Call:
		// unescape("%61%62…")
		if id, ok := v.Callee.(*Ident); ok && id.Name == "unescape" && len(v.Args) == 1 {
			if s, ok := foldString(v.Args[0]); ok {
				return percentDecode(s), true
			}
			return "", false
		}
		// String.fromCharCode(97, 108, …)
		if m, ok := v.Callee.(*Member); ok && !m.Computed {
			obj, okObj := m.Obj.(*Ident)
			prop, okProp := m.Prop.(*Ident)
			if okObj && okProp && obj.Name == "String" && prop.Name == "fromCharCode" {
				var b strings.Builder
				for _, a := range v.Args {
					lit, ok := a.(*Literal)
					if !ok || lit.Kind != LitNumber {
						return "", false
					}
					f, err := strconv.ParseFloat(lit.Value, 64)
					if err != nil {
						return "", false
					}
					b.WriteRune(rune(int(f)))
				}
				return b.String(), true
			}
		}
		return "", false
	default:
		return "", false
	}
}

// percentDecode implements JavaScript's unescape(): %XX byte escapes and
// %uXXXX unicode escapes; malformed escapes pass through verbatim.
func percentDecode(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '%' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if i+5 < len(s) && s[i+1] == 'u' && allHex(s[i+2:i+6]) {
			v, _ := strconv.ParseUint(s[i+2:i+6], 16, 32)
			b.WriteRune(rune(v))
			i += 6
			continue
		}
		if i+2 < len(s) && allHex(s[i+1:i+3]) {
			v, _ := strconv.ParseUint(s[i+1:i+3], 16, 8)
			b.WriteByte(byte(v))
			i += 3
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func allHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isHexDigit(s[i]) {
			return false
		}
	}
	return true
}

// packerToken matches the word tokens the p.a.c.k.e.r payload substitutes.
var packerToken = regexp.MustCompile(`\b\w+\b`)

// decodePacker recognizes the Dean Edwards packer bootstrap
//
//	eval(function(p,a,c,k,e,d){…}('payload', radix, count, 'w0|w1|…'.split('|'), 0, {}))
//
// and decodes the payload without executing it, giving up as soon as the
// decoded text would pass limit bytes.
func decodePacker(arg Node, limit int) (string, bool) {
	call, ok := arg.(*Call)
	if !ok {
		return "", false
	}
	fn, ok := call.Callee.(*FunctionExpr)
	if !ok || len(fn.Params) < 4 || len(call.Args) < 4 {
		return "", false
	}
	payloadLit, ok := call.Args[0].(*Literal)
	if !ok || payloadLit.Kind != LitString {
		return "", false
	}
	radixLit, ok := call.Args[1].(*Literal)
	if !ok || radixLit.Kind != LitNumber {
		return "", false
	}
	countLit, ok := call.Args[2].(*Literal)
	if !ok || countLit.Kind != LitNumber {
		return "", false
	}
	words, ok := splitCallWords(call.Args[3])
	if !ok {
		return "", false
	}
	radix, err1 := strconv.Atoi(radixLit.Value)
	count, err2 := strconv.Atoi(countLit.Value)
	if err1 != nil || err2 != nil || radix < 2 || count < 0 {
		return "", false
	}
	payload := payloadLit.Value
	size := len(payload)
	out := packerToken.ReplaceAllStringFunc(payload, func(tok string) string {
		if size > limit {
			return ""
		}
		idx, ok := packerDecode(tok, radix)
		if !ok || idx >= len(words) || idx >= count || words[idx] == "" {
			return tok
		}
		size += len(words[idx]) - len(tok)
		return words[idx]
	})
	return out, size <= limit
}

// splitCallWords matches the `'a|b|c'.split('|')` idiom and returns the
// word list.
func splitCallWords(n Node) ([]string, bool) {
	call, ok := n.(*Call)
	if !ok {
		return nil, false
	}
	m, ok := call.Callee.(*Member)
	if !ok || m.Computed {
		return nil, false
	}
	prop, ok := m.Prop.(*Ident)
	if !ok || prop.Name != "split" {
		return nil, false
	}
	src, ok := m.Obj.(*Literal)
	if !ok || src.Kind != LitString {
		return nil, false
	}
	if len(call.Args) != 1 {
		return nil, false
	}
	sep, ok := call.Args[0].(*Literal)
	if !ok || sep.Kind != LitString {
		return nil, false
	}
	return strings.Split(src.Value, sep.Value), true
}

// packerDecode interprets a token as a packer base-N index. For radix ≤ 36
// this is plain base-N; for larger radixes the packer's digit alphabet is
// 0-9, a-z, then A-Z.
func packerDecode(tok string, radix int) (int, bool) {
	if radix <= 36 {
		v, err := strconv.ParseInt(strings.ToLower(tok), radix, 64)
		if err != nil || v < 0 {
			return 0, false
		}
		return int(v), true
	}
	v := 0
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'z':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'Z':
			d = int(c-'A') + 36
		default:
			return 0, false
		}
		if d >= radix {
			return 0, false
		}
		v = v*radix + d
	}
	return v, true
}
