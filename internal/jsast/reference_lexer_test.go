package jsast

import "fmt"

// This file is the lexer of commit d38b6c6, renamed and otherwise verbatim:
// one byte at a time through advance, a linear scan of the punctuator table
// per token, a map lookup per identifier, a fresh byte slice per string. It
// is the oracle TestTokenizeMatchesReference and FuzzParse hold the
// byte-dispatched lexer to, token for token and error for error.

// refKeywords are the ECMAScript 5 reserved words the parser understands.
var refKeywords = map[string]bool{
	"break": true, "case": true, "catch": true, "continue": true,
	"debugger": true, "default": true, "delete": true, "do": true,
	"else": true, "finally": true, "for": true, "function": true,
	"if": true, "in": true, "instanceof": true, "new": true,
	"return": true, "switch": true, "this": true, "throw": true,
	"try": true, "typeof": true, "var": true, "void": true,
	"while": true, "with": true, "true": true, "false": true,
	"null": true, "undefined": true,
}

// refPunctuators, longest first per leading byte, for maximal-munch scanning.
var refPunctuators = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=",
	"&&", "||", "++", "--", "<<", ">>", "+=", "-=", "*=", "/=", "%=",
	"&=", "|=", "^=", "=>",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*",
	"/", "%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
}

// refLexer turns JavaScript source into tokens. Create with newRefLexer.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int

	// prev is the last non-comment token, used to disambiguate '/'
	// (division vs regex literal).
	prev Token
	// sawNewline tracks line terminators since the previous token.
	sawNewline bool
}

// newRefLexer returns a lexer over src.
func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
		l.sawNewline = true
	} else {
		l.col++
	}
	return c
}

// skipSpaceAndComments consumes whitespace and // and /* */ comments.
func (l *refLexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// regexAllowed reports whether a '/' at the current position starts a regex
// literal, judged from the previous token (the standard heuristic).
func (l *refLexer) regexAllowed() bool {
	switch l.prev.Kind {
	case TokIdent, TokNumber, TokString, TokRegex:
		return false
	case TokKeyword:
		// After 'this', 'true', etc. a '/' is division.
		switch l.prev.Text {
		case "this", "true", "false", "null", "undefined":
			return false
		}
		return true
	case TokPunct:
		switch l.prev.Text {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	default: // start of input
		return true
	}
}

// Next returns the next token. At end of input it returns a TokEOF token.
func (l *refLexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: int32(l.line), Col: int32(l.col), NewlineBefore: l.sawNewline}
	l.sawNewline = false
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		l.prev = tok
		return tok, nil
	}

	c := l.src[l.pos]
	switch {
	case refIsIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && refIsIdentPart(l.src[l.pos]) {
			l.advance()
		}
		tok.Text = l.src[start:l.pos]
		if refKeywords[tok.Text] {
			tok.Kind = TokKeyword
		} else {
			tok.Kind = TokIdent
		}
	case refIsDigit(c) || c == '.' && l.pos+1 < len(l.src) && refIsDigit(l.src[l.pos+1]):
		text, err := l.scanNumber()
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Text = TokNumber, text
	case c == '"' || c == '\'':
		text, err := l.scanString(c)
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Text = TokString, text
	case c == '/' && l.regexAllowed():
		text, err := l.scanRegex()
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Text = TokRegex, text
	default:
		p := l.referenceMatchPunct()
		if p == "" {
			return Token{}, l.errorf("unexpected character %q", c)
		}
		for range p {
			l.advance()
		}
		tok.Kind, tok.Text = TokPunct, p
	}
	l.prev = tok
	return tok, nil
}

func (l *refLexer) referenceMatchPunct() string {
	rest := l.src[l.pos:]
	for _, p := range refPunctuators {
		if len(rest) >= len(p) && rest[:len(p)] == p {
			return p
		}
	}
	return ""
}

func (l *refLexer) scanNumber() (string, error) {
	start := l.pos
	if l.peekByte() == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && refIsHexDigit(l.src[l.pos]) {
			l.advance()
		}
		return l.src[start:l.pos], nil
	}
	for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
		l.advance()
	}
	if l.peekByte() == '.' {
		l.advance()
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.advance()
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		l.advance()
		if c := l.peekByte(); c == '+' || c == '-' {
			l.advance()
		}
		if !refIsDigit(l.peekByte()) {
			return "", l.errorf("malformed exponent")
		}
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.advance()
		}
	}
	return l.src[start:l.pos], nil
}

// scanString consumes a quoted string and returns its decoded value.
func (l *refLexer) scanString(quote byte) (string, error) {
	l.advance() // opening quote
	var out []byte
	for {
		if l.pos >= len(l.src) {
			return "", l.errorf("unterminated string literal")
		}
		c := l.advance()
		switch c {
		case quote:
			return string(out), nil
		case '\n':
			return "", l.errorf("newline in string literal")
		case '\\':
			if l.pos >= len(l.src) {
				return "", l.errorf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case 'r':
				out = append(out, '\r')
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'v':
				out = append(out, '\v')
			case '0':
				out = append(out, 0)
			case 'x':
				if l.pos+1 < len(l.src) && refIsHexDigit(l.src[l.pos]) && refIsHexDigit(l.src[l.pos+1]) {
					v := refHexVal(l.advance())<<4 | refHexVal(l.advance())
					out = append(out, byte(v))
				} else {
					out = append(out, 'x')
				}
			case 'u':
				if l.pos+3 < len(l.src) && refIsHexDigit(l.src[l.pos]) && refIsHexDigit(l.src[l.pos+1]) &&
					refIsHexDigit(l.src[l.pos+2]) && refIsHexDigit(l.src[l.pos+3]) {
					v := refHexVal(l.advance())<<12 | refHexVal(l.advance())<<8 |
						refHexVal(l.advance())<<4 | refHexVal(l.advance())
					out = append(out, []byte(string(rune(v)))...)
				} else {
					out = append(out, 'u')
				}
			case '\n':
				// line continuation: nothing appended
			default:
				out = append(out, e)
			}
		default:
			out = append(out, c)
		}
	}
}

// scanRegex consumes a /regex/flags literal and returns its full source.
func (l *refLexer) scanRegex() (string, error) {
	start := l.pos
	l.advance() // '/'
	inClass := false
	for {
		if l.pos >= len(l.src) {
			return "", l.errorf("unterminated regex literal")
		}
		c := l.advance()
		switch c {
		case '\\':
			if l.pos < len(l.src) {
				l.advance()
			}
		case '[':
			inClass = true
		case ']':
			inClass = false
		case '\n':
			return "", l.errorf("newline in regex literal")
		case '/':
			if !inClass {
				for l.pos < len(l.src) && refIsIdentPart(l.src[l.pos]) {
					l.advance()
				}
				return l.src[start:l.pos], nil
			}
		}
	}
}

// referenceTokenize scans all of src, returning the token stream (without the
// trailing EOF token).
func referenceTokenize(src string) ([]Token, error) {
	l := newRefLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func refIsIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$' || c >= 0x80
}

func refIsIdentPart(c byte) bool { return refIsIdentStart(c) || c >= '0' && c <= '9' }

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func refIsHexDigit(c byte) bool {
	return refIsDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func refHexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
