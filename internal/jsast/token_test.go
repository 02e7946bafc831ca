package jsast

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func toks(t *testing.T, src string) []Token {
	t.Helper()
	ts, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	return ts
}

func TestTokenizeIdentifiersAndKeywords(t *testing.T) {
	ts := toks(t, "var adblockStatus = active")
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "var"}, {TokIdent, "adblockStatus"},
		{TokPunct, "="}, {TokIdent, "active"},
	}
	if len(ts) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(ts), len(want), ts)
	}
	for i, w := range want {
		if ts[i].Kind != w.kind || ts[i].Text != w.text {
			t.Errorf("token %d = %v, want %v %q", i, ts[i], w.kind, w.text)
		}
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	ts := toks(t, `'a\'b' "c\n" "\x41" "B"`)
	want := []string{"a'b", "c\n", "A", "B"}
	for i, w := range want {
		if ts[i].Kind != TokString || ts[i].Text != w {
			t.Errorf("string %d = %q, want %q", i, ts[i].Text, w)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []string{"0", "42", "3.14", ".5", "1e6", "2.5e-3", "0xFF"}
	for _, c := range cases {
		ts := toks(t, c)
		if len(ts) != 1 || ts[0].Kind != TokNumber || ts[0].Text != c {
			t.Errorf("Tokenize(%q) = %v", c, ts)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	ts := toks(t, "a // line\n/* block\ncomment */ b")
	if len(ts) != 2 || ts[0].Text != "a" || ts[1].Text != "b" {
		t.Fatalf("tokens = %v", ts)
	}
	if !ts[1].NewlineBefore {
		t.Error("newline inside comments should set NewlineBefore")
	}
}

func TestTokenizeRegexVsDivision(t *testing.T) {
	ts := toks(t, "x = /ab[/]c/g; y = a / b / c")
	found := 0
	for _, tok := range ts {
		if tok.Kind == TokRegex {
			found++
			if tok.Text != "/ab[/]c/g" {
				t.Errorf("regex text = %q", tok.Text)
			}
		}
	}
	if found != 1 {
		t.Fatalf("found %d regex literals, want 1", found)
	}
}

func TestTokenizeRegexAfterParen(t *testing.T) {
	ts := toks(t, "if (/adblock/.test(s)) {}")
	hasRegex := false
	for _, tok := range ts {
		if tok.Kind == TokRegex && tok.Text == "/adblock/" {
			hasRegex = true
		}
	}
	if !hasRegex {
		t.Fatal("regex after '(' not recognized")
	}
}

func TestTokenizeMaximalMunch(t *testing.T) {
	ts := toks(t, "a===b !== c >>> d >>>= e")
	var puncts []string
	for _, tok := range ts {
		if tok.Kind == TokPunct {
			puncts = append(puncts, tok.Text)
		}
	}
	want := []string{"===", "!==", ">>>", ">>>="}
	for i, w := range want {
		if puncts[i] != w {
			t.Errorf("punct %d = %q, want %q", i, puncts[i], w)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	bad := []string{`"unterminated`, "/* open", "'nl\n'", "@", "1e"}
	for _, src := range bad {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	ts := toks(t, "a\n  b")
	if ts[0].Line != 1 || ts[0].Col != 1 {
		t.Errorf("a at %d:%d", ts[0].Line, ts[0].Col)
	}
	if ts[1].Line != 2 || ts[1].Col != 3 {
		t.Errorf("b at %d:%d", ts[1].Line, ts[1].Col)
	}
	if !ts[1].NewlineBefore {
		t.Error("b should have NewlineBefore")
	}
}

func TestTokenizeNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_, _ = Tokenize(src) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("typeof") || !IsKeyword("var") {
		t.Error("typeof/var are keywords")
	}
	if IsKeyword("offsetHeight") {
		t.Error("offsetHeight is not a JS keyword")
	}
}

// TestOpCodes holds every operator code to its text: the lexer gives each
// punctuator and keyword its code, and a Token stays 32 bytes.
func TestOpCodes(t *testing.T) {
	if size := unsafe.Sizeof(Token{}); size > 32 {
		t.Errorf("a Token is %d bytes, want at most 32", size)
	}
	for op := opNone + 1; op < opCount; op++ {
		ts := toks(t, "a "+op.String()) // after a name, '/' divides
		kind := TokPunct
		if op >= kwBreak {
			kind = TokKeyword
		}
		if len(ts) != 2 || ts[1].Op != op || ts[1].Kind != kind || ts[1].Text != op.String() {
			t.Errorf("%q lexes to %v, op %d; want one %s of op %d", op.String(), ts, ts[len(ts)-1].Op, kind, op)
		}
	}
	for _, tok := range toks(t, `x = 1 + "s" + /r/g`) {
		if (tok.Kind == TokPunct) != (tok.Op != opNone) {
			t.Errorf("%v has op %d", tok, tok.Op)
		}
	}
}
