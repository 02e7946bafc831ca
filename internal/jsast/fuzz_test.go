package jsast

import (
	"fmt"
	"testing"
)

// matchesReference lexes src with Tokenize and with the parent commit's
// lexer and reports the first difference: in the error text, or in any
// field of any token. The reference lexer predates operator codes, so a
// token's Op is held to its text instead: a punctuator's or keyword's code
// spells the token, and every other token has none.
func matchesReference(src string) error {
	got, gotErr := Tokenize(src)
	want, wantErr := referenceTokenize(src)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("Tokenize error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d tokens, reference %d", len(got), len(want))
	}
	for i := range want {
		op := got[i].Op
		if got[i].Op = opNone; got[i] != want[i] {
			return fmt.Errorf("token %d = %+v, reference %+v", i, got[i], want[i])
		}
		switch k := want[i].Kind; {
		case (k == TokPunct || k == TokKeyword) != (op != opNone):
			return fmt.Errorf("token %d = %+v has operator code %d", i, got[i], op)
		case op != opNone && op.String() != want[i].Text:
			return fmt.Errorf("token %d = %+v has the code of %q", i, got[i], op)
		}
	}
	return nil
}

// FuzzParse feeds the parser what /v1/classify feeds it: bytes from
// anywhere. For every input,
//
//   - nothing panics and nothing overflows the stack (a stack overflow is
//     fatal, so the fuzzer finding one ends the run);
//   - the lexer answers exactly as the parent commit's did: the same tokens
//     at the same positions, or the same error;
//   - the work is linear in the input: a token consumes at least a byte and
//     the parser never backs up, so a tree has at most two nodes per token
//     (an expression statement around a one-token expression) and the root;
//   - no tree is deeper than maxDepth;
//   - what parsed, printed, parses again to a tree of the same size.
func FuzzParse(f *testing.F) {
	for _, src := range vendorTemplates() {
		f.Add(src)
	}
	for i := range nestingShapes {
		f.Add(nest(i, 3, ""))
		f.Add(nest(i, maxDepth, ""))
	}
	for _, src := range []string{
		code4, code5, code8,
		`eval(function(p,a,c,k,e,d){return p}('0 1=2;',10,3,'var|bait|detected'.split('|'),0,{}));`,
		"a = b / c / d; e = /re[/]x/g.test(f) ? 'g\\x41\\u00e9\\\n' : \"h\\0\";",
		"for (var i = 0, j = (k in l); i < j; i++) { if (m) continue; else break }",
		"x = {a: 1, 'b c': [2, , 3], in: function f(g) { return typeof -g }}",
		"l: do { try { throw new N(1)(2) } catch (e) { debugger } finally { ; } } while (0)\nwith (o) switch (p) { case 1: default: }",
		"(function(){}), ({}), 1 .a, new (b())(), - -c, + ++d, e-- - --f",
		"for (var f = function(){ for (;;) {} }, g = (h in i); ; ) ;",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := matchesReference(src); err != nil {
			t.Fatal(err)
		}
		toks, _ := Tokenize(src)
		if len(toks) > len(src) {
			t.Fatalf("%d tokens from %d bytes", len(toks), len(src))
		}

		prog, err := Parse(src)
		if err != nil {
			return
		}
		count := Count(prog)
		if count > 2*len(toks)+1 {
			t.Fatalf("%d nodes from %d tokens", count, len(toks))
		}
		if d := treeDepth(prog); d > maxDepth {
			t.Fatalf("tree %d deep, bound %d", d, maxDepth)
		}
		printed := Print(prog)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if n := Count(again); n != count {
			t.Fatalf("%d nodes, %d after Print and Parse\n%s", count, n, printed)
		}
	})
}
