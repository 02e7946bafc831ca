// Package scriptcorpus assembles the JavaScript inputs the parser and
// feature-extraction oracle tests run on: the Table 3 corpus at the
// benchmark's scale, the live crawl's scripts, every antiadblock template
// plain, minified and eval-packed, hand-written dynamic-code shapes and a
// few inputs that must not parse.
// Only tests import it; it lives outside them because jsast and features
// need the same inputs and a _test.go file cannot be shared.
package scriptcorpus

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/experiments"
	"adwars/internal/simworld"
)

// benchScale is the lab scale of the benchmark's paper_pipeline workload
// (bench/pipeline.go) and of TestTable3Pinned.
const benchScale = 40

// packed are the dynamic-code shapes §5's unpacker handles, plus the ones it
// must leave alone (opaque payloads, payloads that do not parse, nesting past
// the unpack bound).
var packed = []string{
	`eval("var hiddenAdblockCheck = 1;");`,
	`eval("var ad" + "block" + "Flag = true;");`,
	`eval(unescape("%76%61%72%20%78%20%3D%20offsetHeight%3B"));`,
	`eval(unescape("%u0076ar y = clientHeight%3B%zz%"));`,
	`eval(String.fromCharCode(118, 97, 114, 32, 113, 61, 49));`,
	`eval("eval(\"var nested = 2;\");");`,
	`eval("eval(\"eval(\\\"eval(\\\\\\\"var deep = 4;\\\\\\\");\\\");\");");`,
	`eval(function(p,a,c,k,e,d){e=function(c){return c};while(c--){if(k[c]){p=p.replace(new RegExp('\\b'+e(c)+'\\b','g'),k[c])}}return p}('0 1=2;',10,3,'var|bait|detected'.split('|'),0,{}));`,
	`eval(function(p,a,c,k,e,d){return p}('1 0=Z.Y("X");',62,62,'el|var'.split('|'),0,{}));`,
	`eval(window.atob("dmFyIHggPSAxOw=="));`,
	`eval("this is not javascript (");`,
	`var f = eval; f("var indirect = 1;"); window.eval("var member = 1;");`,
	`if (a) { eval('document.getElementById("x").style.display = "none";'); } else eval("b\x28);\
c()");`,
	`eval("var a = '" + "q" + "';", 2); eval(); x = eval("1") + eval('2');`,
}

// malformed are inputs the lexer or the parser must refuse, each at a
// different point.
var malformed = []string{
	"var = ;",
	"function (",
	"x = 'unterminated",
	"y = \"new\nline\"",
	"/* never closed",
	"z = 1e+;",
	"a = /unterminated",
	"b = #;",
	"try { c(); }",
	"switch (d) { e: }",
	"do f(); until (g)",
	"h = {1: 2, [3]: 4}",
	"i.",
	"j = (k",
}

var (
	once    sync.Once
	scripts []string
	err     error
)

// Scripts returns the corpus, built once per process (a second or two: one
// 1/40-scale retrospective crawl and one live crawl), and skips the calling
// test in -short mode. Callers must not modify the slice.
func Scripts(tb testing.TB) []string {
	tb.Helper()
	if testing.Short() {
		tb.Skip("crawls the 1/40-scale lab; skipped in -short")
	}
	once.Do(func() { scripts, err = build() })
	if err != nil {
		tb.Fatal(err)
	}
	return scripts
}

func build() ([]string, error) {
	ctx := context.Background()
	lab := experiments.NewLab(simworld.Scaled(1, benchScale))
	retro, err := lab.RunRetrospective(ctx, experiments.RetroConfig{Shards: 1})
	if err != nil {
		return nil, fmt.Errorf("scriptcorpus: retrospective crawl: %w", err)
	}
	live, err := lab.RunLive(ctx, experiments.LiveConfig{})
	if err != nil {
		return nil, fmt.Errorf("scriptcorpus: live crawl: %w", err)
	}
	out := append([]string(nil), retro.CorpusPos...)
	out = append(out, retro.CorpusNeg...)
	for _, s := range live.Scripts {
		out = append(out, s.Source)
	}
	out = append(out, templates()...)
	out = append(out, packed...)
	return append(out, malformed...), nil
}

// templates renders every antiadblock vendor template and every benign
// family under each generation option, the packed ones often enough that
// both the eval("…") and the opaque atob form come up.
func templates() []string {
	rng := rand.New(rand.NewSource(17))
	opts := []antiadblock.GenOptions{{}, {Minify: true}, {PackProbability: 1}, {PackProbability: 1, Minify: true}}
	var out []string
	for _, opt := range opts {
		reps := 1
		if opt.PackProbability > 0 {
			reps = 8
		}
		for r := 0; r < reps; r++ {
			for _, v := range antiadblock.Catalog {
				out = append(out, antiadblock.VendorScript(v, "http://"+strings.ToLower(v.Name)+".example/ads.js", "notice", rng, opt))
			}
			out = append(out, antiadblock.CanRunAdsScript("notice", rng, opt))
			for _, k := range antiadblock.BenignKinds() {
				out = append(out, antiadblock.BenignScript(k, rng, opt))
			}
		}
	}
	return out
}
