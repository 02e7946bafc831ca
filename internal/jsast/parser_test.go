package jsast

import (
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	return prog
}

// Code 4 of the paper: the businessinsider.com HTTP bait.
const code4 = `
var script = document.createElement("script");
script.setAttribute("async", true);
script.setAttribute("src", "//www.npttech.com/advertising.js");
script.setAttribute("onerror", "setAdblockerCookie(true);");
script.setAttribute("onload", "setAdblockerCookie(false);");
document.getElementsByTagName("head")[0].appendChild(script);

var setAdblockerCookie = function(adblocker) {
  var d = new Date();
  d.setTime(d.getTime() + 60 * 60 * 24 * 30 * 1000);
  document.cookie = "__adblocker=" + (adblocker ? "true" : "false") +
    "; expires=" + d.toUTCString() + "; path=/";
};
`

// Code 5 of the paper: BlockAdBlock bait creation and checking.
const code5 = `
BlockAdBlock.prototype._creatBait = function() {
  var bait = document.createElement('div');
  bait.setAttribute('class', this._options.baitClass);
  bait.setAttribute('style', this._options.baitStyle);
  this._var.bait = window.document.body.appendChild(bait);
  this._var.bait.offsetParent;
  this._var.bait.offsetHeight;
  this._var.bait.offsetLeft;
  this._var.bait.offsetTop;
  this._var.bait.offsetWidth;
  this._var.bait.clientHeight;
  this._var.bait.clientWidth;
  if (this._options.debug === true) {
    this._log('_creatBait', 'Bait has been created');
  }
};
BlockAdBlock.prototype._checkBait = function(loop) {
  var detected = false;
  if (window.document.body.getAttribute('abp') !== null
      || this._var.bait.offsetParent === null
      || this._var.bait.offsetHeight == 0
      || this._var.bait.offsetLeft == 0
      || this._var.bait.offsetTop == 0
      || this._var.bait.offsetWidth == 0
      || this._var.bait.clientHeight == 0
      || this._var.bait.clientWidth == 0) {
    detected = true;
  }
};
`

// Code 8 of the paper: the numerama.com canRunAds check.
const code8 = `
canRunAds = true;
var adblockStatus = 'inactive';
if (window.canRunAds === undefined) {
  adblockStatus = 'active';
}
`

func TestParsePaperCode4(t *testing.T) {
	prog := parse(t, code4)
	if len(prog.Body) != 7 {
		t.Fatalf("top-level statements = %d, want 7", len(prog.Body))
	}
	// Last statement declares setAdblockerCookie as a function expression.
	vd, ok := prog.Body[6].(*VarDecl)
	if !ok {
		t.Fatalf("statement 7 = %T, want *VarDecl", prog.Body[6])
	}
	if vd.Decls[0].Name != "setAdblockerCookie" {
		t.Fatalf("declarator = %q", vd.Decls[0].Name)
	}
	if _, ok := vd.Decls[0].Init.(*FunctionExpr); !ok {
		t.Fatalf("init = %T, want *FunctionExpr", vd.Decls[0].Init)
	}
}

func TestParsePaperCode5(t *testing.T) {
	prog := parse(t, code5)
	// Collect member property names; the bait CSS probes must be present.
	props := map[string]bool{}
	Inspect(prog, func(n Node) bool {
		if m, ok := n.(*Member); ok && !m.Computed {
			if id, ok := m.Prop.(*Ident); ok {
				props[id.Name] = true
			}
		}
		return true
	})
	for _, want := range []string{"offsetHeight", "offsetTop", "offsetWidth",
		"clientHeight", "clientWidth", "_creatBait", "_checkBait", "prototype"} {
		if !props[want] {
			t.Errorf("member property %q not found", want)
		}
	}
}

func TestParsePaperCode8(t *testing.T) {
	prog := parse(t, code8)
	ifs := 0
	Inspect(prog, func(n Node) bool {
		if _, ok := n.(*If); ok {
			ifs++
		}
		return true
	})
	if ifs != 1 {
		t.Fatalf("if statements = %d, want 1", ifs)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
for (var i = 0; i < 10; i++) { x += i; }
for (k in obj) { delete obj[k]; }
while (running) { step(); }
do { tick(); } while (more);
switch (v) { case 1: a(); break; case 2: b(); break; default: c(); }
try { risky(); } catch (e) { handle(e); } finally { done(); }
label: for (;;) { break label; }
with (o) { p = 1; }
`
	prog := parse(t, src)
	types := map[string]int{}
	Inspect(prog, func(n Node) bool {
		types[n.Type()]++
		return true
	})
	for _, want := range []string{"ForStatement", "ForInStatement",
		"WhileStatement", "DoWhileStatement", "SwitchStatement",
		"TryStatement", "CatchClause", "LabeledStatement", "WithStatement"} {
		if types[want] == 0 {
			t.Errorf("no %s parsed", want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := parse(t, "x = 1 + 2 * 3;")
	assign := prog.Body[0].(*ExprStmt).X.(*Assign)
	add, ok := assign.R.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("rhs = %#v, want '+' at top", assign.R)
	}
	mul, ok := add.R.(*Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs of + = %#v, want '*'", add.R)
	}
}

func TestParseLogicalChain(t *testing.T) {
	prog := parse(t, "detected = a === null || b == 0 || c == 0;")
	assign := prog.Body[0].(*ExprStmt).X.(*Assign)
	or, ok := assign.R.(*Logical)
	if !ok || or.Op != "||" {
		t.Fatalf("rhs = %#v", assign.R)
	}
}

func TestParseTernaryAndSequence(t *testing.T) {
	prog := parse(t, "r = (a ? b : c, d);")
	assign := prog.Body[0].(*ExprStmt).X.(*Assign)
	seq, ok := assign.R.(*Sequence)
	if !ok || len(seq.Exprs) != 2 {
		t.Fatalf("rhs = %#v, want sequence of 2", assign.R)
	}
	if _, ok := seq.Exprs[0].(*Conditional); !ok {
		t.Fatalf("first = %#v, want conditional", seq.Exprs[0])
	}
}

func TestParseNewExpression(t *testing.T) {
	prog := parse(t, "var d = new Date(); var x = new a.b.C(1, 2); var y = new F;")
	news := 0
	Inspect(prog, func(n Node) bool {
		if _, ok := n.(*New); ok {
			news++
		}
		return true
	})
	if news != 3 {
		t.Fatalf("new expressions = %d, want 3", news)
	}
}

func TestParseObjectAndArrayLiterals(t *testing.T) {
	prog := parse(t, `var o = {a: 1, "b": [2, 3], 'c': {d: null}, default: 4};`)
	objs, arrs := 0, 0
	Inspect(prog, func(n Node) bool {
		switch n.(type) {
		case *ObjectLit:
			objs++
		case *ArrayLit:
			arrs++
		}
		return true
	})
	if objs != 2 || arrs != 1 {
		t.Fatalf("objects=%d arrays=%d", objs, arrs)
	}
}

func TestParseASI(t *testing.T) {
	// No semicolons at all: ASI must hold.
	prog := parse(t, "var a = 1\nvar b = 2\nreturnValue(a + b)")
	if len(prog.Body) != 3 {
		t.Fatalf("statements = %d, want 3", len(prog.Body))
	}
}

func TestParseReturnASI(t *testing.T) {
	prog := parse(t, "function f() { return\n1 }")
	fd := prog.Body[0].(*FunctionDecl)
	ret := fd.Body.Body[0].(*Return)
	if ret.Arg != nil {
		t.Fatal("return followed by newline must not take an argument")
	}
}

func TestParseComputedMember(t *testing.T) {
	prog := parse(t, `document.getElementsByTagName("head")[0].appendChild(s);`)
	computed := false
	Inspect(prog, func(n Node) bool {
		if m, ok := n.(*Member); ok && m.Computed {
			computed = true
		}
		return true
	})
	if !computed {
		t.Fatal("computed member access not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"if (", "function (){}", "var ;", "a +", "try {}", "{",
		"switch (x) { foo }", "do { } until (x);",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseKeywordPropertyNames(t *testing.T) {
	prog := parse(t, "x.delete(); y.new; o = {in: 1, for: 2};")
	if len(prog.Body) != 3 {
		t.Fatalf("statements = %d", len(prog.Body))
	}
}

func TestParseRegexLiteralStatement(t *testing.T) {
	prog := parse(t, `var re = /adb[lL]ock/gi; re.test(navigator.userAgent);`)
	found := false
	Inspect(prog, func(n Node) bool {
		if l, ok := n.(*Literal); ok && l.Kind == LitRegex {
			found = strings.HasPrefix(l.Value, "/adb")
		}
		return true
	})
	if !found {
		t.Fatal("regex literal missing from AST")
	}
}

// nodeTypes is every node type the parser can produce.
var nodeTypes = []string{
	"Program", "FunctionDeclaration", "VariableDeclaration", "VariableDeclarator",
	"BlockStatement", "ExpressionStatement", "IfStatement", "ForStatement",
	"ForInStatement", "WhileStatement", "DoWhileStatement", "ReturnStatement",
	"TryStatement", "CatchClause", "ThrowStatement", "SwitchStatement",
	"SwitchCase", "BreakStatement", "ContinueStatement", "LabeledStatement",
	"EmptyStatement", "WithStatement", "DebuggerStatement", "Identifier",
	"Literal", "ThisExpression", "ArrayExpression", "ObjectExpression",
	"Property", "FunctionExpression", "UnaryExpression", "UpdateExpression",
	"BinaryExpression", "LogicalExpression", "AssignmentExpression",
	"ConditionalExpression", "CallExpression", "NewExpression",
	"MemberExpression", "SequenceExpression",
}

func TestChildrenCoversEveryNodeType(t *testing.T) {
	src := code4 + code5 + code8 + `
function g(n) { for (var i = 0; i < n; i++) {} return {n: n}; }
for (k in o) {}
l: while (0) { continue l; }
do { break; } while (0);
switch (x) { case 1: default: ; }
try { t(); } catch (e) { throw e; } finally { f(); }
with (w) { a = b ? c : d, e; }
var arr = [1, , 2];
debugger;
u = typeof -+!~v;
p = i++ + --j;
q = a in b;
`
	prog := parse(t, src)
	// Walk with EachChild alone: a node type it cannot reach, or whose
	// children it drops, is missing from the census.
	seen := map[string]int{}
	visited := 0
	var walk func(Node)
	walk = func(n Node) {
		seen[n.Type()]++
		visited++
		EachChild(n, walk)
	}
	walk(prog)
	for _, typ := range nodeTypes {
		if seen[typ] == 0 {
			t.Errorf("EachChild never reached a %s", typ)
		}
	}
	if len(seen) != len(nodeTypes) {
		t.Errorf("walk saw %d node types, the parser has %d", len(seen), len(nodeTypes))
	}
	if n := Count(prog); n != visited || n < 100 {
		t.Fatalf("EachChild visited %d nodes, Inspect counted %d", visited, n)
	}
}

// TestEachChildSkipsAbsentChildren: an optional *Block or *Catch that is nil
// must not reach the visitor as a non-nil Node holding a nil pointer, and a
// nil Node field must not reach it at all.
func TestEachChildSkipsAbsentChildren(t *testing.T) {
	for _, n := range []Node{
		&Try{}, &Catch{}, &FunctionDecl{}, &FunctionExpr{}, &If{}, &For{},
		&Return{}, &Declarator{}, &Case{}, &Program{Body: []Node{nil}},
	} {
		EachChild(n, func(c Node) {
			t.Errorf("%s with no children: visitor called with %#v", n.Type(), c)
		})
	}
	try := &Try{Body: &Block{}, Finally: &Block{}}
	var got []string
	EachChild(try, func(c Node) { got = append(got, c.Type()) })
	if len(got) != 2 || got[0] != "BlockStatement" || got[1] != "BlockStatement" {
		t.Errorf("Try without Catch: children %v, want its two blocks", got)
	}
}

// Count returns the number of nodes in the tree. It is exported for the
// external oracle test.
func Count(n Node) int {
	total := 0
	Inspect(n, func(Node) bool { total++; return true })
	return total
}
