package jsast

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// treeDepth measures a tree the way maxDepth bounds it — the root at depth
// zero — without recursing, so that a tree the parser should have refused
// fails the test instead of overflowing its stack.
func treeDepth(root Node) int {
	type item struct {
		n Node
		d int
	}
	stack := []item{{root, 0}}
	deepest := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.d > deepest {
			deepest = it.d
		}
		EachChild(it.n, func(c Node) { stack = append(stack, item{c, it.d + 1}) })
	}
	return deepest
}

// nestingShapes are the ways source text makes a parse deep: pre, then open
// n times, core, shut n times, post. The first six are the ones a megabyte
// of which killed the server; the rest cover every other recursion of the
// parser and every other chain it builds in a loop. Parentheses deepen the
// parse and not the tree, hence flat.
var nestingShapes = []struct {
	name                        string
	pre, open, core, shut, post string
	flat                        bool
}{
	{name: "paren", open: "(", core: "a", shut: ")", flat: true},
	{name: "array", open: "[", shut: "]"},
	{name: "block", open: "{", shut: "}"},
	{name: "binary chain", open: "a+", core: "a"},
	{name: "member chain", open: "a.", core: "a"},
	{name: "call nest", open: "f(", shut: ")"},
	{name: "call chain", core: "f", shut: "()"},
	{name: "index chain", core: "a", shut: "[0]"},
	{name: "index nest", open: "a[", core: "0", shut: "]"},
	{name: "assign", open: "a=", core: "a"},
	{name: "conditional", open: "a?a:", core: "a"},
	{name: "logical chain", open: "a&&", core: "a"},
	{name: "unary", open: "!", core: "a"},
	{name: "typeof", open: "typeof ", core: "a"},
	{name: "prefix update", open: "++", core: "a"},
	{name: "new", open: "new ", core: "a"},
	{name: "new member", core: "new a", shut: ".a"},
	{name: "new index", core: "new a", shut: "[0]"},
	{name: "label", open: "a:", core: ";"},
	{name: "if", open: "if(a)", core: ";"},
	{name: "else if", open: "if(a);else ", core: ";"},
	{name: "while", open: "while(a)", core: ";"},
	{name: "do", open: "do ", core: ";", shut: " while(a);"},
	{name: "for", open: "for(;;)", core: ";"},
	{name: "for in", open: "for(a in a)", core: ";"},
	{name: "with", open: "with(a)", core: ";"},
	{name: "object", open: "({a:", core: "0", shut: "})"},
	{name: "function", open: "(function(){", shut: "})"},
	{name: "function decl", open: "function f(){", shut: "}"},
	{name: "try", open: "try{", shut: "}finally{}"},
	{name: "catch", open: "try{}catch(e){", shut: "}"},
	{name: "switch", open: "switch(a){case a:", shut: "}"},
	{name: "var", pre: "var a=", open: "[", shut: "]"},
	{name: "for var", pre: "for(var a=", open: "[", shut: "]", post: ";;);"},
	{name: "sequence", open: "(a,", core: "a", shut: ")"},
	{name: "return", pre: "function f(){return ", open: "[", shut: "]", post: "}"},
	{name: "throw", pre: "throw ", open: "-", core: "a"},
}

func nest(sh int, n int, core string) string {
	s := nestingShapes[sh]
	if core == "" {
		core = s.core
	}
	return s.pre + strings.Repeat(s.open, n) + core + strings.Repeat(s.shut, n) + s.post
}

// TestDepthBoundHoldsAtEveryShape: for every shape, no tree deeper than
// maxDepth ever comes back, the bound refuses with a *SyntaxError and not a
// crash, and it is not so conservative that it refuses what is well inside
// it (its accounting may count a level too many per parenthesis and per
// sibling chain, never one too few).
func TestDepthBoundHoldsAtEveryShape(t *testing.T) {
	for i, sh := range nestingShapes {
		deepest := 0
		for _, n := range []int{1, 2, 3, maxDepth / 4, maxDepth/2 - 2, maxDepth - 3, maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1, 2 * maxDepth, 3*maxDepth + 1} {
			prog, err := Parse(nest(i, n, ""))
			if err != nil {
				var syn *SyntaxError
				if !errors.As(err, &syn) {
					t.Errorf("%s × %d: error %T %v, want a *SyntaxError", sh.name, n, err, err)
				}
				if n <= maxDepth/4 {
					t.Errorf("%s × %d refused: %v", sh.name, n, err)
				}
				continue
			}
			d := treeDepth(prog)
			if d > maxDepth {
				t.Errorf("%s × %d parsed to a tree %d deep, bound %d", sh.name, n, d, maxDepth)
			}
			if d > deepest {
				deepest = d
			}
		}
		if _, err := Parse(nest(i, 3*maxDepth+1, "")); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s × %d: error %v, want the depth bound's", sh.name, 3*maxDepth+1, err)
		}
		if deepest < maxDepth/3 && !sh.flat {
			t.Errorf("%s: deepest tree accepted is %d levels, bound %d: the accounting overcounts by more than it says", sh.name, deepest, maxDepth)
		}
	}
}

// TestDepthBoundHoldsForMixedShapes composes the shapes at random — a deep
// operand under a long chain, a chain under a nest under a chain — sized so
// that about half the compositions cross the bound. Whatever parses must be
// inside it: this is the check that the accounting never undercounts when
// a loop wraps a node around operands it parsed long before.
func TestDepthBoundHoldsForMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var exprShapes []int // those that nest an expression inside an expression
	for i, sh := range nestingShapes {
		if sh.pre == "" && (!strings.ContainsAny(sh.open+sh.core, ";{") || sh.name == "object") {
			exprShapes = append(exprShapes, i)
		}
	}
	accepted, refused, deepest := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		src := "a"
		for layers := 1 + rng.Intn(4); layers > 0; layers-- {
			wrapped := nest(exprShapes[rng.Intn(len(exprShapes))], 1+rng.Intn(maxDepth/2), "("+src+")")
			if rng.Intn(2) == 0 {
				// Also as the left operand of a chain parsed after it.
				wrapped = "(" + wrapped + ")" + strings.Repeat([]string{"+a", ".a", "()", "[0]", "&&a"}[rng.Intn(5)], rng.Intn(maxDepth/2))
			}
			src = wrapped
		}
		prog, err := Parse("x = " + src + ";")
		if err != nil {
			refused++
			continue
		}
		accepted++
		d := treeDepth(prog)
		if d > deepest {
			deepest = d
		}
		if d > maxDepth {
			t.Fatalf("tree %d deep accepted, bound %d:\n%.300s…", d, maxDepth, src)
		}
	}
	if accepted < 50 || refused < 50 || deepest < maxDepth/2 {
		t.Fatalf("%d accepted (deepest %d), %d refused: the trials do not straddle the bound", accepted, deepest, refused)
	}
}

// TestMegabyteOfNestingIsRefusedQuickly: the request that used to kill the
// process — /v1/classify's default body limit of any one nesting shape —
// now costs a parse error, and in time linear in the input: the depth check
// stops the parser a few hundred tokens in, the lexer has read it all.
func TestMegabyteOfNestingIsRefusedQuickly(t *testing.T) {
	const body = 1 << 20
	for _, sh := range nestingShapes {
		unit, src := sh.open, ""
		if unit == "" {
			unit, src = sh.shut, sh.core
		}
		src = sh.pre + src + strings.Repeat(unit, body/len(unit))
		start := time.Now()
		_, err := Parse(src)
		took := time.Since(start)
		var syn *SyntaxError
		if !errors.As(err, &syn) {
			t.Errorf("%s: 1 MiB of %q: error %v, want a *SyntaxError", sh.name, unit, err)
		}
		if took > 5*time.Second {
			t.Errorf("%s: 1 MiB of %q took %v to refuse", sh.name, unit, took)
		}
	}
}

func ExampleParse_tooDeep() {
	_, err := Parse(strings.Repeat("(", 1<<20))
	fmt.Println(err)
	// Output: js syntax error at 1:512: nested deeper than 512 levels
}
