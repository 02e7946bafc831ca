package jsast

import (
	"fmt"
	"slices"
	"strings"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds produced by the lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokRegex
	TokPunct
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "eof"
	case TokIdent:
		return "ident"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokRegex:
		return "regex"
	case TokPunct:
		return "punct"
	default:
		return "unknown"
	}
}

// Token is one lexical token with its source position, in 32 bytes: a
// script lexes to some seven times its own size in tokens.
type Token struct {
	Kind TokenKind
	// Op says which punctuator or keyword the token is, zero for every
	// other kind: the parser asks "is this a '('?" several times a token,
	// and answers with one byte compare.
	Op Op
	// NewlineBefore reports whether a line terminator occurred between
	// the previous token and this one; the parser's automatic semicolon
	// insertion depends on it.
	NewlineBefore bool
	// Line and Col locate the token (1-based).
	Line, Col int32
	// Text is the token's meaning-bearing text: the identifier or keyword
	// name, the decoded string value, the number literal text, the regex
	// source, or the punctuation characters.
	Text string
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// IsKeyword reports whether name is a native JavaScript keyword: the
// ECMAScript 5 reserved words the parser understands.
func IsKeyword(name string) bool { return keywordOp(name) != opNone }

// Op is the operator code of a punctuator or keyword token. Its String is
// the token's text.
type Op uint8

// The operator codes. Two runs are tested as ranges and must stay
// contiguous: the assignment operators, and the keywords, which come after
// every punctuator.
const (
	opNone Op = iota

	opLBrace   // {
	opRBrace   // }
	opLParen   // (
	opRParen   // )
	opLBracket // [
	opRBracket // ]
	opSemi     // ;
	opComma    // ,
	opDot      // .
	opQuestion // ?
	opColon    // :
	opArrow    // =>
	opNot      // !
	opTilde    // ~
	opInc      // ++
	opDec      // --
	opOrOr     // ||
	opAndAnd   // &&
	opOr       // |
	opXor      // ^
	opAnd      // &
	opEq       // ==
	opNe       // !=
	opStrictEq // ===
	opStrictNe // !==
	opLt       // <
	opGt       // >
	opLe       // <=
	opGe       // >=
	opShl      // <<
	opShr      // >>
	opUshr     // >>>
	opPlus     // +
	opMinus    // -
	opStar     // *
	opSlash    // /
	opPercent  // %

	opAssign     // =
	opAddAssign  // +=
	opSubAssign  // -=
	opMulAssign  // *=
	opDivAssign  // /=
	opModAssign  // %=
	opShlAssign  // <<=
	opShrAssign  // >>=
	opUshrAssign // >>>=
	opAndAssign  // &=
	opOrAssign   // |=
	opXorAssign  // ^=

	kwBreak
	kwCase
	kwCatch
	kwContinue
	kwDebugger
	kwDefault
	kwDelete
	kwDo
	kwElse
	kwFinally
	kwFor
	kwFunction
	kwIf
	kwIn
	kwInstanceof
	kwNew
	kwReturn
	kwSwitch
	kwThis
	kwThrow
	kwTry
	kwTypeof
	kwVar
	kwVoid
	kwWhile
	kwWith
	kwTrue
	kwFalse
	kwNull
	kwUndefined

	opCount
)

// opText is each code's token text.
var opText = [opCount]string{
	opLBrace: "{", opRBrace: "}", opLParen: "(", opRParen: ")",
	opLBracket: "[", opRBracket: "]", opSemi: ";", opComma: ",",
	opDot: ".", opQuestion: "?", opColon: ":", opArrow: "=>",
	opNot: "!", opTilde: "~", opInc: "++", opDec: "--",
	opOrOr: "||", opAndAnd: "&&", opOr: "|", opXor: "^", opAnd: "&",
	opEq: "==", opNe: "!=", opStrictEq: "===", opStrictNe: "!==",
	opLt: "<", opGt: ">", opLe: "<=", opGe: ">=",
	opShl: "<<", opShr: ">>", opUshr: ">>>",
	opPlus: "+", opMinus: "-", opStar: "*", opSlash: "/", opPercent: "%",
	opAssign: "=", opAddAssign: "+=", opSubAssign: "-=", opMulAssign: "*=",
	opDivAssign: "/=", opModAssign: "%=", opShlAssign: "<<=",
	opShrAssign: ">>=", opUshrAssign: ">>>=", opAndAssign: "&=",
	opOrAssign: "|=", opXorAssign: "^=",
	kwBreak: "break", kwCase: "case", kwCatch: "catch",
	kwContinue: "continue", kwDebugger: "debugger", kwDefault: "default",
	kwDelete: "delete", kwDo: "do", kwElse: "else", kwFinally: "finally",
	kwFor: "for", kwFunction: "function", kwIf: "if", kwIn: "in",
	kwInstanceof: "instanceof", kwNew: "new", kwReturn: "return",
	kwSwitch: "switch", kwThis: "this", kwThrow: "throw", kwTry: "try",
	kwTypeof: "typeof", kwVar: "var", kwVoid: "void", kwWhile: "while",
	kwWith: "with", kwTrue: "true", kwFalse: "false", kwNull: "null",
	kwUndefined: "undefined",
}

func (o Op) String() string {
	if o < opCount {
		return opText[o]
	}
	return ""
}

// keywordsByLead groups the keyword codes by their first letter, which is
// all keywordOp needs to leave at most five candidates.
var keywordsByLead = func() (t [26][]Op) {
	for op := kwBreak; op < opCount; op++ {
		c := opText[op][0] - 'a'
		t[c] = append(t[c], op)
	}
	return t
}()

// keywordOp returns name's keyword code, opNone for a name that is not a
// keyword. The lexer asks once per identifier, so this is an index by the
// first letter and a few comparisons, not a hashed lookup.
func keywordOp(name string) Op {
	if name == "" || name[0]-'a' >= 26 {
		return opNone
	}
	for _, op := range keywordsByLead[name[0]-'a'] {
		if opText[op] == name {
			return op
		}
	}
	return opNone
}

// punctByLead groups the punctuators by their first byte, each group
// longest first, so the first prefix match in a group is the maximal munch.
// More than half of all tokens are punctuators.
var punctByLead = func() (t [128][]Op) {
	for op := opLBrace; op < kwBreak; op++ {
		c := opText[op][0]
		t[c] = append(t[c], op)
		slices.SortStableFunc(t[c], func(a, b Op) int { return len(opText[b]) - len(opText[a]) })
	}
	return t
}()

// Lexer turns JavaScript source into tokens. Create with NewLexer.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int

	// prevKind and prevOp are the last token's, used to disambiguate
	// '/' (division vs regex literal).
	prevKind TokenKind
	prevOp   Op
	// sawNewline tracks line terminators since the previous token.
	sawNewline bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// SyntaxError reports a lexical or parse error with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("js syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) advance() byte {
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
func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v':
			l.pos++
			l.col++
		case c == '\n':
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

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$' || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

// skip consumes n bytes known to hold no line terminator.
func (l *Lexer) skip(n int) {
	l.pos += n
	l.col += n
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// regexAllowed reports whether a '/' at the current position starts a regex
// literal, judged from the previous token (the standard heuristic).
func (l *Lexer) regexAllowed() bool {
	switch l.prevKind {
	case TokIdent, TokNumber, TokString, TokRegex:
		return false
	case TokKeyword:
		// After 'this', 'true', etc. a '/' is division.
		switch l.prevOp {
		case kwThis, kwTrue, kwFalse, kwNull, kwUndefined:
			return false
		}
		return true
	case TokPunct:
		switch l.prevOp {
		case opRParen, opRBracket, opRBrace, opInc, opDec:
			return false
		}
		return true
	default: // start of input
		return true
	}
}

// scan lexes the next token into *tok, which tokenize points at the slot
// the token will live in, so that a token is written once, whole.
func (l *Lexer) scan(tok *Token) error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	line, col, newline := int32(l.line), int32(l.col), l.sawNewline
	l.sawNewline = false
	if l.pos >= len(l.src) {
		*tok = Token{Line: line, Col: col, NewlineBefore: newline}
		l.prevKind, l.prevOp = TokEOF, opNone
		return nil
	}

	var kind TokenKind
	var op Op
	var text string
	var err error
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		end := l.pos + 1
		for end < len(l.src) && isIdentPart(l.src[end]) {
			end++
		}
		text = l.src[l.pos:end]
		l.skip(end - l.pos)
		if op = keywordOp(text); op != opNone {
			kind = TokKeyword
		} else {
			kind = TokIdent
		}
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		kind = TokNumber
		text, err = l.scanNumber()
	case c == '"' || c == '\'':
		kind = TokString
		text, err = l.scanString(c)
	case c == '/' && l.regexAllowed():
		kind = TokRegex
		text, err = l.scanRegex()
	default:
		if op = l.matchPunct(); op == opNone {
			return l.errorf("unexpected character %q", c)
		}
		kind, text = TokPunct, opText[op]
		l.skip(len(text))
	}
	if err != nil {
		return err
	}
	*tok = Token{Kind: kind, Op: op, NewlineBefore: newline, Line: line, Col: col, Text: text}
	l.prevKind, l.prevOp = kind, op
	return nil
}

// matchPunct returns the longest punctuator at the current position: the
// first match among those that share its leading byte.
func (l *Lexer) matchPunct() Op {
	rest := l.src[l.pos:]
	if rest[0] >= 0x80 {
		return opNone
	}
	for _, op := range punctByLead[rest[0]] {
		if p := opText[op]; len(p) == 1 || strings.HasPrefix(rest[1:], p[1:]) {
			return op
		}
	}
	return opNone
}

func (l *Lexer) scanNumber() (string, error) {
	start := l.pos
	if l.peekByte() == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.advance()
		}
		return l.src[start:l.pos], nil
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.advance()
	}
	if l.peekByte() == '.' {
		l.advance()
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.advance()
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		l.advance()
		if c := l.peekByte(); c == '+' || c == '-' {
			l.advance()
		}
		if !isDigit(l.peekByte()) {
			return "", l.errorf("malformed exponent")
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.advance()
		}
	}
	return l.src[start:l.pos], nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// scanString consumes a quoted string and returns its decoded value.
func (l *Lexer) scanString(quote byte) (string, error) {
	// Most literals hold no escape: their value is a slice of the source.
	end := l.pos + 1
	for end < len(l.src) && l.src[end] != quote && l.src[end] != '\\' && l.src[end] != '\n' {
		end++
	}
	if end < len(l.src) && l.src[end] == quote {
		text := l.src[l.pos+1 : end]
		l.skip(end + 1 - l.pos)
		return text, nil
	}
	// An escape to decode, or an error to place: byte by byte, into a
	// buffer the length of the literal, which no escape's value exceeds.
	for end < len(l.src) && l.src[end] != quote && l.src[end] != '\n' {
		if l.src[end] == '\\' {
			end++
		}
		end++
	}
	out := make([]byte, 0, end-l.pos)
	l.advance() // opening quote
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
				if l.pos+1 < len(l.src) && isHexDigit(l.src[l.pos]) && isHexDigit(l.src[l.pos+1]) {
					v := hexVal(l.advance())<<4 | hexVal(l.advance())
					out = append(out, byte(v))
				} else {
					out = append(out, 'x')
				}
			case 'u':
				if l.pos+3 < len(l.src) && isHexDigit(l.src[l.pos]) && isHexDigit(l.src[l.pos+1]) &&
					isHexDigit(l.src[l.pos+2]) && isHexDigit(l.src[l.pos+3]) {
					v := hexVal(l.advance())<<12 | hexVal(l.advance())<<8 |
						hexVal(l.advance())<<4 | hexVal(l.advance())
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

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// scanRegex consumes a /regex/flags literal and returns its full source.
func (l *Lexer) scanRegex() (string, error) {
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
				for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
					l.advance()
				}
				return l.src[start:l.pos], nil
			}
		}
	}
}

// Tokenize scans all of src, returning the token stream (without the
// trailing EOF token).
func Tokenize(src string) ([]Token, error) {
	toks, err := tokenize(src, nil)
	if err != nil {
		return nil, err
	}
	return toks[:len(toks)-1], nil
}

// Tokens are sized from the source still to be lexed, not by doubling: a
// script is either ordinary code, one token per bytesPerToken bytes or so
// (median 4.4 over the Table 3 corpus, 3.1 at the dense end), or a packed
// payload, a handful of tokens around one string literal a kilobyte long.
// The first firstTokens are cheap enough to guess at; once they are used up
// the lexer is past any leading comment and inside whatever the script
// mostly is, and what remains sizes the slice in one step (a second, small
// one for the tail of denser code).
const (
	bytesPerToken = 4
	firstTokens   = 8
)

// tokenize is Tokenize with an EOF token as the slice's last element, the
// sentinel the parser stops at, appended to toks[:0]. The sentinel carries
// no position: parse errors at end of input have always read "at 0:0". On
// an error it returns the tokens written so far beside it, so that Parse can
// clear a pooled buffer however far the lexer got.
func tokenize(src string, toks []Token) ([]Token, error) {
	l := NewLexer(src)
	toks = toks[:0]
	if cap(toks) == 0 {
		toks = make([]Token, 0, firstTokens)
	}
	for {
		if len(toks) == cap(toks) {
			// By at least a quarter, or a megabyte of one-byte tokens
			// would creep up on its size in fifty copies.
			more := max((len(src)-l.pos)/bytesPerToken+firstTokens, len(toks)/4)
			grown := make([]Token, len(toks), len(toks)+more)
			copy(grown, toks)
			toks = grown
		}
		toks = toks[:len(toks)+1]
		t := &toks[len(toks)-1]
		if err := l.scan(t); err != nil {
			return toks, err
		}
		if t.Kind == TokEOF {
			*t = Token{Kind: TokEOF}
			return toks, nil
		}
	}
}
