package features

import (
	"strings"
	"testing"
	"unicode/utf8"

	"adwars/internal/jsast"
)

// blockAdBlockSnippet is Code 5 of the paper (abridged but containing every
// feature Table 2 lists).
const blockAdBlockSnippet = `
BlockAdBlock.prototype._creatBait = function() {
  var bait = document.createElement('div');
  bait.setAttribute('class', this._options.baitClass);
  bait.setAttribute('style', 'hidden');
  this._var.bait = window.document.body.appendChild(bait);
  this._var.bait.offsetHeight;
  this._var.bait.offsetWidth;
  this._var.bait.clientHeight;
  this._var.bait.clientWidth;
};
BlockAdBlock.prototype._checkBait = function(loop) {
  var detected = false;
  if (window.document.body.getAttribute('abp') !== null
      || this._var.bait.offsetHeight == 0) {
    detected = true;
  }
};
`

func extractSnippet(t *testing.T, set Set) map[string]bool {
	t.Helper()
	prog, err := jsast.Parse(blockAdBlockSnippet)
	if err != nil {
		t.Fatal(err)
	}
	return Extract(prog, set)
}

func TestExtractTable2AllFeatures(t *testing.T) {
	fs := extractSnippet(t, SetAll)
	// The rows of Table 2 with type "all".
	for _, want := range []string{
		"MemberExpression:BlockAdBlock",
		"MemberExpression:_creatBait",
		"MemberExpression:_checkBait",
		"Literal:abp",
		"Literal:0",
		"Literal:hidden",
		"Identifier:clientHeight",
		"Identifier:clientWidth",
		"Identifier:offsetHeight",
		"Identifier:offsetWidth",
	} {
		if !fs[want] {
			t.Errorf("all-set missing feature %q", want)
		}
	}
}

func TestExtractLiteralSet(t *testing.T) {
	fs := extractSnippet(t, SetLiteral)
	for _, want := range []string{"Literal:abp", "Literal:0", "Literal:hidden"} {
		if !fs[want] {
			t.Errorf("literal-set missing %q", want)
		}
	}
	for f := range fs {
		switch f {
		case "MemberExpression:BlockAdBlock", "Identifier:clientHeight":
			t.Errorf("literal-set must not contain %q", f)
		}
	}
}

func TestExtractKeywordSet(t *testing.T) {
	fs := extractSnippet(t, SetKeyword)
	for _, want := range []string{
		"Identifier:clientHeight", "Identifier:clientWidth",
		"Identifier:offsetHeight", "Identifier:offsetWidth",
	} {
		if !fs[want] {
			t.Errorf("keyword-set missing %q", want)
		}
	}
	// Identifiers and literals must be excluded.
	for _, bad := range []string{
		"MemberExpression:BlockAdBlock", "Literal:abp", "Literal:hidden",
	} {
		if fs[bad] {
			t.Errorf("keyword-set must not contain %q", bad)
		}
	}
}

func TestKeywordSetRobustToIdentifierRenaming(t *testing.T) {
	orig, err := ExtractSource(`var bait = document.createElement('div'); bait.offsetHeight;`, SetKeyword)
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := ExtractSource(`var zz91 = document.createElement('xyz'); zz91.offsetHeight;`, SetKeyword)
	if err != nil {
		t.Fatal(err)
	}
	// document, createElement, offsetHeight survive renaming; the
	// user-chosen identifier and the literal do not enter the keyword set.
	for f := range orig {
		isLiteral := f == "CallExpression:div" || f == "Literal:div"
		if isLiteral {
			continue
		}
		if !renamed[f] {
			t.Errorf("keyword feature %q lost after renaming", f)
		}
	}
}

func TestExtractEnclosingConstructContext(t *testing.T) {
	fs, err := ExtractSource(`
try { riskyProbe(); } catch (e) { recover(); }
for (var i = 0; i < 3; i++) { loopBody(); }
if (cond) { thenBranch(); }
`, SetAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TryStatement:riskyProbe",
		"CatchClause:recover",
		"ForStatement:loopBody",
		"IfStatement:thenBranch",
	} {
		if !fs[want] {
			t.Errorf("missing enclosing-construct feature %q", want)
		}
	}
}

func TestExtractJSKeywordFeatures(t *testing.T) {
	fs, err := ExtractSource(`if (typeof x === "undefined") { var y = new Date(); }`, SetKeyword)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UnaryExpression:typeof", "Identifier:Date"} {
		if !fs[want] {
			t.Errorf("keyword-set missing %q", want)
		}
	}
}

func TestExtractSourceParseError(t *testing.T) {
	if _, err := ExtractSource("(((", SetAll); err == nil {
		t.Fatal("want parse error")
	}
}

func TestExtractUnpacksEval(t *testing.T) {
	fs, err := ExtractSource(`eval("var hiddenBait = document.body.offsetHeight;");`, SetAll)
	if err != nil {
		t.Fatal(err)
	}
	if !fs["Identifier:offsetHeight"] {
		t.Error("features from unpacked eval payload missing")
	}
}

func TestExtractTruncatesHugeLiterals(t *testing.T) {
	big := make([]byte, 5000)
	for i := range big {
		big[i] = 'a'
	}
	fs, err := ExtractSource(`var x = "`+string(big)+`";`, SetLiteral)
	if err != nil {
		t.Fatal(err)
	}
	for f := range fs {
		if len(f) > maxTextLen+40 {
			t.Errorf("feature too long: %d bytes", len(f))
		}
	}
}

func TestSetString(t *testing.T) {
	if SetAll.String() != "all" || SetLiteral.String() != "literal" || SetKeyword.String() != "keyword" {
		t.Error("Set.String mismatch")
	}
}

// TestFeatureText holds the cut and the repair that keep every feature
// text valid UTF-8 of at most maxTextLen bytes.
func TestFeatureText(t *testing.T) {
	a63 := strings.Repeat("a", 63)
	for _, tc := range []struct{ in, want string }{
		{"document", "document"},
		{strings.Repeat("x", 70), strings.Repeat("x", 64)},
		{a63 + "é", a63}, // é would straddle byte 64
		{"été" + strings.Repeat("x", 70), "été" + strings.Repeat("x", 59)},
		{"\xe9t\xe9", "été"}, // \xNN escapes: Latin-1
		{"\xff\xfe", "ÿþ"},
		{"a\xc3", "aÃ"}, // a torn sequence
		{"�", "�"},      // a real replacement character stays
		{strings.Repeat("\xe9", 40), strings.Repeat("é", 32)},
	} {
		got := featureText(tc.in)
		if got != tc.want || !utf8.ValidString(got) || len(got) > maxTextLen {
			t.Errorf("featureText(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
