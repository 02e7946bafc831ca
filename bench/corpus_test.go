package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"adwars/internal/abp"
)

// corpusDigest hashes everything a match workload feeds the server.
func corpusDigest(t *testing.T, seed int64, easy int) string {
	t.Helper()
	h := sha256.New()
	texts, uni := paperLists(seed)
	texts = append(texts, easyList(seed, uni, easy))
	for _, tx := range texts {
		fmt.Fprintf(h, "%s\n%s\n", tx.Name, tx.Body)
	}
	lists, err := buildLists(texts)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range marshalPool(requestPool(seed, uni, listDomains(lists), poolSize)) {
		h.Write(body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := corpusDigest(t, 7, 3000), corpusDigest(t, 7, 3000), corpusDigest(t, 8, 3000)
	if a != b {
		t.Errorf("same seed, different lists or pool: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same lists and pool")
	}
}

func scriptDigest(t *testing.T, seed int64) string {
	t.Helper()
	sc, err := buildScriptCorpus(context.Background(), seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range sc.Scripts {
		fmt.Fprintf(h, "%d\n%s\n", len(s), s)
	}
	fmt.Fprint(h, sc.Model.Vocab)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestScriptPoolIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := scriptDigest(t, 7), scriptDigest(t, 7), scriptDigest(t, 8)
	if a != b {
		t.Errorf("same seed, different scripts or vocabulary")
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same scripts and vocabulary")
	}
}

// Every synthesised rule parses, there are exactly as many as asked for,
// and the six classes hold the documented shares within a point.
func TestEasyListParsesInTheDocumentedMix(t *testing.T) {
	_, uni := paperLists(3)
	counts := map[abp.Class]int{}
	n := 0
	for _, line := range strings.Split(easyList(3, uni, easyRules).Body, "\n") {
		if line == "" || line[0] == '!' || line[0] == '[' {
			continue
		}
		r, err := abp.Parse(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		counts[r.Class()]++
		n++
	}
	if n != easyRules {
		t.Fatalf("%d rules, want %d", n, easyRules)
	}
	for class, want := range classShares() {
		if got := float64(counts[class]) / float64(n); math.Abs(got-want) > 0.01 {
			t.Errorf("%s: share %.3f, documented %.3f", class, got, want)
		}
	}
}

// The pool must neither never fire nor always fire on either snapshot, on
// more than one seed. The bands are wide on purpose: they catch a broken
// generator, the exact fractions are the traced run's abp.match_frac.
func TestPoolFiresSometimes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		easy     int
		seeds    int64
		min, max float64
	}{
		{"match_paper", 0, 3, 0.10, 0.50},
		{"match_easylist", easyRules, 1, 0.25, 0.70},
	} {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			c, err := buildMatchCorpus(seed, tc.easy, 4096)
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			for _, want := range c.Want {
				if string(want) != string(verdictPrefix(abp.NoMatch)) {
					fired++
				}
			}
			if f := float64(fired) / float64(len(c.Want)); f < tc.min || f > tc.max {
				t.Errorf("%s seed %d: match fraction %.3f outside [%.2f, %.2f]", tc.name, seed, f, tc.min, tc.max)
			}
		}
	}
}
