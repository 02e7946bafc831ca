package jsast

import (
	"strings"
	"testing"
	"time"
)

func TestUnpackStringLiteralEval(t *testing.T) {
	src := `eval("var hiddenAdblockCheck = 1;");`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("unpacked = %d, want 1", n)
	}
	if !hasIdent(prog, "hiddenAdblockCheck") {
		t.Fatal("unpacked statement missing from program body")
	}
}

func TestUnpackConcatenation(t *testing.T) {
	src := `eval("var ad" + "block" + "Flag = true;");`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !hasIdent(prog, "adblockFlag") {
		t.Fatalf("unpacked=%d hasIdent=%v", n, hasIdent(prog, "adblockFlag"))
	}
}

func TestUnpackUnescape(t *testing.T) {
	// "var x = offsetHeight;" percent-encoded.
	src := `eval(unescape("%76%61%72%20%78%20%3D%20offsetHeight%3B"));`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !hasIdent(prog, "offsetHeight") {
		t.Fatalf("unpacked=%d", n)
	}
}

func TestUnpackFromCharCode(t *testing.T) {
	// "var q=1" = 118 97 114 32 113 61 49
	src := `eval(String.fromCharCode(118, 97, 114, 32, 113, 61, 49));`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !hasIdent(prog, "q") {
		t.Fatalf("unpacked=%d", n)
	}
}

func TestUnpackNestedEval(t *testing.T) {
	src := `eval("eval(\"var nested = 2;\");");`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("unpacked = %d, want 2", n)
	}
	if !hasIdent(prog, "nested") {
		t.Fatal("nested payload not recovered")
	}
}

func TestUnpackPacker(t *testing.T) {
	// eval(function(p,a,c,k,e,d){...}('0 1=2;',10,3,'var|bait|detected'.split('|'),0,{}))
	src := `eval(function(p,a,c,k,e,d){e=function(c){return c};while(c--){if(k[c]){p=p.replace(new RegExp('\\b'+e(c)+'\\b','g'),k[c])}}return p}('0 1=2;',10,3,'var|bait|detected'.split('|'),0,{}));`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("unpacked = %d, want 1", n)
	}
	if !hasIdent(prog, "bait") {
		t.Fatal("packer payload 'var bait=detected;' not recovered")
	}
}

func TestUnpackPackerBase62(t *testing.T) {
	// Token 'A' decodes to index 36 in base 62; build a word list that
	// exercises it: indexes 0..36, with only a few words defined.
	words := make([]string, 37)
	words[0] = "var"
	words[1] = "marker62"
	payload := "0 1;"
	wordStr := ""
	for i, w := range words {
		if i > 0 {
			wordStr += "|"
		}
		wordStr += w
	}
	src := `eval(function(p,a,c,k,e,d){}('` + payload + `',62,37,'` + wordStr + `'.split('|'),0,{}));`
	prog, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !hasIdent(prog, "marker62") {
		t.Fatalf("unpacked=%d", n)
	}
}

func TestUnpackIgnoresDynamicEval(t *testing.T) {
	src := `eval(userInput);` // cannot be decoded statically
	_, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unpacked = %d, want 0", n)
	}
}

func TestUnpackIgnoresMalformedPayload(t *testing.T) {
	src := `eval("this is not ((( valid js");`
	_, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unpacked = %d, want 0", n)
	}
}

func TestUnpackDepthBound(t *testing.T) {
	// Build eval nesting deeper than maxUnpackDepth; must terminate.
	src := `var deepest = 1;`
	for i := 0; i < maxUnpackDepth+3; i++ {
		src = `eval(` + quoteJS(src) + `);`
	}
	_, n, err := ParseAndUnpack(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > maxUnpackDepth {
		t.Fatalf("unpacked %d levels, bound is %d", n, maxUnpackDepth)
	}
}

func TestPercentDecode(t *testing.T) {
	cases := map[string]string{
		"%41%42":  "AB",
		"%u0041x": "Ax",
		"plain":   "plain",
		"%zz":     "%zz",
		"100%25":  "100%",
		"%u00e9":  "é",
		"trail%":  "trail%",
	}
	for in, want := range cases {
		if got := percentDecode(in); got != want {
			t.Errorf("percentDecode(%q) = %q, want %q", in, got, want)
		}
	}
}

func hasIdent(prog *Program, name string) bool {
	found := false
	Inspect(prog, func(n Node) bool {
		switch v := n.(type) {
		case *Ident:
			if v.Name == name {
				found = true
			}
		case *Declarator:
			if v.Name == name {
				found = true
			}
		}
		return true
	})
	return found
}

// quoteJS wraps s in double quotes with JS escaping for quotes/backslashes.
func quoteJS(s string) string {
	out := `"`
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', '\\':
			out += `\` + string(s[i])
		case '\n':
			out += `\n`
		default:
			out += string(s[i])
		}
	}
	return out + `"`
}

// packerOf writes the packer bootstrap whose payload is n copies of index 0
// and whose dictionary is the one word: n·len(word) bytes decoded (and n−1
// separators) from n·2 + len(word) written.
func packerOf(n int, word string) string {
	return `eval(function(p,a,c,k,e,d){}('` + strings.TrimSuffix(strings.Repeat("0 ", n), " ") +
		`',10,1,'` + word + `'.split('|'),0,{}));`
}

// TestUnpackDecodesNoMoreThanItsBudget: the size of what a packer payload
// decodes to is the sender's to choose, so one Unpack stops at
// maxUnpackBytes — across the payloads of a script and across the payloads
// those contain — and leaves the payload that would cross it packed, as it
// leaves one that does not parse.
func TestUnpackDecodesNoMoreThanItsBudget(t *testing.T) {
	stmt := strings.Repeat("hit=1;", 100) // 600 bytes that parse, however often repeated
	third := maxUnpackBytes / 3 / (len(stmt) + 1)
	for _, tc := range []struct {
		name string
		src  string
		want int  // payloads unpacked
		hit  bool // stmt's assignments are in the tree
	}{
		{"inside the budget", packerOf(third, stmt), 1, true},
		{"the request of ROADMAP 4c: 1 MiB asking for 128 GB", packerOf(1<<18, strings.Repeat("w", 1<<19)), 0, false},
		{"one byte past the budget", packerOf(1, strings.Repeat("w", maxUnpackBytes+1)), 0, false},
		{"the budget exactly", packerOf(1, strings.Repeat("w", maxUnpackBytes)), 1, false},
		{"shared by a script's payloads", strings.Repeat(packerOf(third, stmt), 4), 3, true},
		{"a small payload after the one refused", packerOf(2*third, stmt) + packerOf(2*third, stmt) + packerOf(3, stmt), 2, true},
		{"shared across nesting levels", `eval("` + strings.Repeat("pad=0;", maxUnpackBytes/2/6) + packerOf(2*third, stmt) + `");`, 1, false},
		{"nested and inside it", `eval("` + strings.Repeat("pad=0;", maxUnpackBytes/2/6) + packerOf(third, stmt) + `");`, 2, true},
	} {
		start := time.Now()
		prog, n, err := ParseAndUnpack(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != tc.want {
			t.Errorf("%s: %d payloads unpacked, want %d", tc.name, n, tc.want)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: took %v", tc.name, took)
		}
		if got := hasIdent(prog, "hit"); got != tc.hit {
			t.Errorf("%s: decoded statements in the tree = %v, want %v", tc.name, got, tc.hit)
		}
	}
}
