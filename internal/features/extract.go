package features

import (
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

// Extract returns the binary feature set of a script's AST under the given
// feature set. Each feature is "Context:Text"; for every text-bearing node
// up to three contexts are emitted: the node's own type, its parent's type,
// and the nearest enclosing statement construct (loop, try, catch, if,
// switch, function — the contexts §5 names).
func Extract(prog *jsast.Program, set Set) map[string]bool {
	out := make(map[string]bool)
	walk(prog, set, func(context, text string) { out[context+":"+text] = true })
	return out
}

// walk is the one feature walk: it visits every node of prog and hands sink
// each (context, text) pair the feature set keeps, the text already cut to
// maxTextLen. Pairs repeat — a script names document many times — and sink
// sees every repeat. Extract's sink builds the feature map; ProjectProgram's
// looks the pair up in a vocabulary without building anything.
func walk(prog *jsast.Program, set Set, sink func(context, text string)) {
	w := walker{set: set, sink: sink}
	w.node(prog, "Program", "")
}

type walker struct {
	set  Set
	sink func(context, text string)
}

func (w *walker) emit(context, text string, kind textKind) {
	if !w.set.keep(kind) || text == "" {
		return
	}
	if len(text) > maxTextLen {
		text = text[:maxTextLen]
	}
	w.sink(context, text)
}

// nameKind tells a Web API keyword from a plain identifier. Only the
// keyword set keeps one and drops the other, so only it pays for the lookup.
func (w *walker) nameKind(name string) textKind {
	if w.set == SetKeyword && IsWebAPIKeyword(name) {
		return kindKeyword
	}
	return kindIdentifier
}

// node emits n's features and walks its children. parent is the type of
// n's parent ("Program" for the root itself) and enclosing the type of the
// nearest construct around n — one of the contexts §5 names: loops,
// try/catch, if, switch and function bodies — or "" outside any.
func (w *walker) node(n jsast.Node, parent, enclosing string) {
	typ := n.Type()
	emitAll := func(text string, kind textKind) {
		w.emit(typ, text, kind)
		if parent != typ {
			w.emit(parent, text, kind)
		}
		if enclosing != "" && enclosing != parent && enclosing != typ {
			w.emit(enclosing, text, kind)
		}
	}

	// A construct is the enclosing context of its children, not its own.
	inside := enclosing
	switch v := n.(type) {
	case *jsast.Ident:
		emitAll(v.Name, w.nameKind(v.Name))
	case *jsast.Literal:
		emitAll(v.Value, kindLiteral)
	case *jsast.Declarator:
		emitAll(v.Name, w.nameKind(v.Name))
	case *jsast.FunctionDecl:
		emitAll(v.Name, kindIdentifier)
		w.emit(typ, "function", kindKeyword)
		inside = typ
	case *jsast.FunctionExpr:
		if v.Name != "" {
			emitAll(v.Name, kindIdentifier)
		}
		w.emit(typ, "function", kindKeyword)
		inside = typ
	case *jsast.Unary:
		if jsast.IsKeyword(v.Op) { // typeof, void, delete
			w.emit(typ, v.Op, kindKeyword)
		}
	case *jsast.This:
		w.emit(parent, "this", kindKeyword)
	case *jsast.VarDecl:
		w.emit(parent, "var", kindKeyword)
	case *jsast.If:
		w.emit(parent, "if", kindKeyword)
		inside = typ
	case *jsast.For, *jsast.ForIn:
		w.emit(parent, "for", kindKeyword)
		inside = typ
	case *jsast.While, *jsast.DoWhile:
		w.emit(parent, "while", kindKeyword)
		inside = typ
	case *jsast.Try:
		w.emit(parent, "try", kindKeyword)
		inside = typ
	case *jsast.Catch:
		w.emit(parent, "catch", kindKeyword)
		inside = typ
	case *jsast.Switch:
		w.emit(parent, "switch", kindKeyword)
		inside = typ
	case *jsast.Return:
		w.emit(parent, "return", kindKeyword)
	case *jsast.New:
		w.emit(parent, "new", kindKeyword)
	case *jsast.Binary:
		if jsast.IsKeyword(v.Op) { // in, instanceof
			w.emit(typ, v.Op, kindKeyword)
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
