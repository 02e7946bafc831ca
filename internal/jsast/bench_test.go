package jsast

import (
	"math/rand"
	"testing"

	"adwars/internal/antiadblock"
)

// vendorTemplates renders each catalog vendor's detector plain and
// eval-packed: the scripts /v1/classify exists to recognise.
func vendorTemplates() []string {
	rng := rand.New(rand.NewSource(1))
	var out []string
	for _, opt := range []antiadblock.GenOptions{{}, {PackProbability: 1}} {
		for _, v := range antiadblock.Catalog {
			out = append(out, antiadblock.VendorScript(v, "http://bait.example/ads.js", "notice", rng, opt))
		}
	}
	return out
}

// benchTemplates runs fn over the vendor templates, one pass per iteration,
// and reports the pass's token count beside time, bytes and allocations, so
// a per-token cost can be read off and compared across corpora.
func benchTemplates(b *testing.B, fn func(src string) error) {
	srcs := vendorTemplates()
	bytes, tokens := 0, 0
	for _, src := range srcs {
		toks, err := Tokenize(src)
		if err != nil {
			b.Fatal(err)
		}
		bytes += len(src)
		tokens += len(toks)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if err := fn(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(tokens), "tokens/op")
}

// BenchmarkTokenizeTemplates measures lexing alone on the vendor templates.
func BenchmarkTokenizeTemplates(b *testing.B) {
	benchTemplates(b, func(src string) error { _, err := Tokenize(src); return err })
}

// BenchmarkParseAndUnpackTemplates measures what /v1/classify pays before
// feature extraction: lex, parse, and unpack where there is an eval.
func BenchmarkParseAndUnpackTemplates(b *testing.B) {
	benchTemplates(b, func(src string) error { _, _, err := ParseAndUnpack(src); return err })
}

// BenchmarkTokenize measures lexing of the paper's Code 5 snippet.
func BenchmarkTokenize(b *testing.B) {
	b.SetBytes(int64(len(code5)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(code5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures full parsing of Code 5.
func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(code5)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(code5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseAndUnpack measures the ablation cost of the unpacking
// pass on an eval-packed payload.
func BenchmarkParseAndUnpack(b *testing.B) {
	src := `eval(` + quoteJS(code4) + `);`
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, n, err := ParseAndUnpack(src)
		if err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatal("payload not unpacked")
		}
	}
}

// BenchmarkInspect measures AST traversal.
func BenchmarkInspect(b *testing.B) {
	prog, err := Parse(code4 + code5 + code8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Inspect(prog, func(Node) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty walk")
		}
	}
}
