package features

import (
	"unicode/utf8"

	"adwars/internal/jsast"
)

// Set selects which text elements become features (§5, Feature Extraction).
type Set int

const (
	// SetAll keeps every text element: JS keywords, Web API keywords,
	// identifiers, and literals.
	SetAll Set = iota
	// SetLiteral keeps literal values only.
	SetLiteral
	// SetKeyword keeps native JS keywords and Web API keywords only.
	SetKeyword
)

// String names the feature set as the paper does.
func (s Set) String() string {
	switch s {
	case SetAll:
		return "all"
	case SetLiteral:
		return "literal"
	case SetKeyword:
		return "keyword"
	default:
		return "unknown"
	}
}

// Sets lists the three feature sets in Table 3 order.
var Sets = []Set{SetAll, SetLiteral, SetKeyword}

// textKind classifies a text element the way the paper's three feature sets
// need: identifier, literal, or (JS / Web API) keyword.
type textKind int

const (
	kindIdentifier textKind = iota
	kindLiteral
	kindKeyword
	// kindName is a name not yet told apart: a Web API keyword or a plain
	// identifier. Only the keyword set keeps one and drops the other, so
	// only it asks, and only about a name it may keep.
	kindName
)

// keep reports whether a text of the given kind belongs to the feature set.
func (s Set) keep(k textKind) bool {
	switch s {
	case SetAll:
		return true
	case SetLiteral:
		return k == kindLiteral
	case SetKeyword:
		return k == kindKeyword
	default:
		return false
	}
}

// maxTextLen truncates pathological texts (huge string literals) so that a
// single script cannot blow up the vocabulary.
const maxTextLen = 64

// featureText is the text a feature names for the text element s: s cut
// to at most maxTextLen bytes on a character boundary, and valid UTF-8
// whatever s holds. A vocabulary travels in a model snapshot as JSON, which
// rewrites invalid UTF-8, so a feature whose text is not valid UTF-8 would
// name, once loaded, a string no walk produces. Identifiers may hold any
// byte above 0x7f, and a \xNN escape decodes to one raw byte; each byte
// that is not part of a UTF-8 sequence stands for its Latin-1 character,
// which is what \xNN means in JavaScript.
func featureText(s string) string {
	n := min(len(s), maxTextLen)
	i := 0
	for i < n && s[i] < utf8.RuneSelf {
		i++
	}
	if i == n {
		return s[:n]
	}
	b := make([]byte, i, maxTextLen)
	copy(b, s)
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			r = rune(s[i])
		}
		if len(b)+utf8.RuneLen(r) > maxTextLen {
			break
		}
		b = utf8.AppendRune(b, r)
		i += size
	}
	return string(b)
}

// Extract returns the binary feature set of a script's AST under the given
// feature set. Each feature is "Context:Text"; for every text-bearing node
// up to three contexts are emitted: the node's own type, its parent's type,
// and the nearest enclosing statement construct (loop, try, catch, if,
// switch, function — the contexts §5 names).
func Extract(prog *jsast.Program, set Set) map[string]bool {
	w := walker{set: set, out: make(map[string]bool)}
	w.node(prog, "Program", "")
	return w.out
}

// walker is the one feature walk: it visits every node of a program and
// finds each text the feature set keeps, with the contexts it stands in.
// Texts repeat — a script names document many times — and the walker sees
// every repeat. Extract's walker collects the features in out;
// ProjectProgram's looks each text up in vocab and marks the features the
// vocabulary has in hit, building nothing.
type walker struct {
	set Set
	out map[string]bool

	vocab *Vocab
	hit   []uint64
}

// found takes one text element, found under the contexts c0, c1 and c2,
// the last two empty when absent or a repeat of one before.
func (w *walker) found(s string, kind textKind, c0, c1, c2 string) {
	if kind == kindName && w.set != SetKeyword {
		kind = kindIdentifier
	}
	if s == "" || kind != kindName && !w.set.keep(kind) {
		return
	}
	text := featureText(s)
	if w.vocab != nil {
		t := w.vocab.lookup(text)
		if t == nil || kind == kindName && !t.webAPI {
			return
		}
		for _, c := range t.contexts {
			if c.context == c0 || c.context == c1 || c.context == c2 {
				w.hit[c.i>>6] |= 1 << (c.i & 63)
			}
		}
		return
	}
	if kind == kindName && !IsWebAPIKeyword(s) {
		return
	}
	w.out[c0+":"+text] = true
	if c1 != "" {
		w.out[c1+":"+text] = true
	}
	if c2 != "" {
		w.out[c2+":"+text] = true
	}
}

// node emits n's features and walks its children. parent is the type of
// n's parent ("Program" for the root itself) and enclosing the type of the
// nearest construct around n — one of the contexts §5 names: loops,
// try/catch, if, switch and function bodies — or "" outside any.
func (w *walker) node(n jsast.Node, parent, enclosing string) {
	typ := n.Type()
	// A text-bearing node's text stands under its own type, its parent's
	// and the enclosing construct's, each once.
	ctxParent, ctxEnclosing := parent, enclosing
	if parent == typ {
		ctxParent = ""
	}
	if enclosing == parent || enclosing == typ {
		ctxEnclosing = ""
	}

	// A construct is the enclosing context of its children, not its own.
	inside := enclosing
	switch v := n.(type) {
	case *jsast.Ident:
		w.found(v.Name, kindName, typ, ctxParent, ctxEnclosing)
	case *jsast.Literal:
		w.found(v.Value, kindLiteral, typ, ctxParent, ctxEnclosing)
	case *jsast.Declarator:
		w.found(v.Name, kindName, typ, ctxParent, ctxEnclosing)
	case *jsast.FunctionDecl:
		w.found(v.Name, kindIdentifier, typ, ctxParent, ctxEnclosing)
		w.found("function", kindKeyword, typ, "", "")
		inside = typ
	case *jsast.FunctionExpr:
		w.found(v.Name, kindIdentifier, typ, ctxParent, ctxEnclosing)
		w.found("function", kindKeyword, typ, "", "")
		inside = typ
	case *jsast.Unary:
		if jsast.IsKeyword(v.Op) { // typeof, void, delete
			w.found(v.Op, kindKeyword, typ, "", "")
		}
	case *jsast.This:
		w.found("this", kindKeyword, parent, "", "")
	case *jsast.VarDecl:
		w.found("var", kindKeyword, parent, "", "")
	case *jsast.If:
		w.found("if", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.For, *jsast.ForIn:
		w.found("for", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.While, *jsast.DoWhile:
		w.found("while", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.Try:
		w.found("try", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.Catch:
		w.found("catch", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.Switch:
		w.found("switch", kindKeyword, parent, "", "")
		inside = typ
	case *jsast.Return:
		w.found("return", kindKeyword, parent, "", "")
	case *jsast.New:
		w.found("new", kindKeyword, parent, "", "")
	case *jsast.Binary:
		if jsast.IsKeyword(v.Op) { // in, instanceof
			w.found(v.Op, kindKeyword, typ, "", "")
		}
	}
	jsast.EachChild(n, func(c jsast.Node) { w.node(c, typ, inside) })
}

// ExtractSource parses (and unpacks) JavaScript source and extracts its
// features. Scripts that fail to parse yield a nil map and the parse error.
func ExtractSource(src string, set Set) (map[string]bool, error) {
	prog, _, err := jsast.ParseAndUnpack(src)
	if err != nil {
		return nil, err
	}
	return Extract(prog, set), nil
}
