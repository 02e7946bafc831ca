package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adwars/internal/abp"
	"adwars/internal/features"
)

// ---- §3.3 exhibit: differing implementations for shared domains ----

// SharedDomainRules shows, for one domain listed by both lists, each
// list's rules — the paper's Codes 9 and 10 (yocast.tv, pagefair.com).
type SharedDomainRules struct {
	Domain string
	AAK    []string
	CEL    []string
}

// SharedRuleExhibit samples up to n shared domains and renders how each
// list implements rules for them, demonstrating §3.3's finding that "both
// filter lists often have different rules to circumvent anti-adblockers
// even for the same set of domains".
func (l *Lab) SharedRuleExhibit(n int) []SharedDomainRules {
	aak := l.Lists.AAK.LatestList()
	cel := l.Lists.Combined.LatestList()

	inAAK := map[string]bool{}
	for _, d := range aak.Domains() {
		inAAK[d] = true
	}
	var shared []string
	for _, d := range cel.Domains() {
		if inAAK[d] {
			shared = append(shared, d)
		}
	}
	sort.Strings(shared)

	var out []SharedDomainRules
	for _, d := range shared {
		aakRules := ruleTexts(aak.RulesForDomain(d))
		celRules := ruleTexts(cel.RulesForDomain(d))
		// Only exhibit domains where the implementations differ.
		if len(aakRules) == 0 || len(celRules) == 0 || sameStrings(aakRules, celRules) {
			continue
		}
		out = append(out, SharedDomainRules{Domain: d, AAK: aakRules, CEL: celRules})
		if len(out) == n {
			break
		}
	}
	return out
}

func ruleTexts(rules []*abp.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Raw
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RenderSharedRules prints the exhibit in the style of Codes 9 and 10.
func RenderSharedRules(rows []SharedDomainRules) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.3 — differing rule implementations for shared domains (%d samples)\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "domain %s\n", r.Domain)
		fmt.Fprintf(&b, "  ! Combined EasyList\n")
		for _, rule := range r.CEL {
			fmt.Fprintf(&b, "  %s\n", rule)
		}
		fmt.Fprintf(&b, "  ! Anti-Adblock Killer\n")
		for _, rule := range r.AAK {
			fmt.Fprintf(&b, "  %s\n", rule)
		}
	}
	return b.String()
}

// ---- §5 exhibit: most-discriminative features ----

// FeatureImportance is one feature's chi-square score over the corpus.
type FeatureImportance struct {
	Feature string
	Chi2    float64
}

// TopFeatures builds the corpus dataset under a feature set and returns
// the k features with the highest chi-square scores — what a filter list
// author would read to understand the classifier's fingerprint.
func TopFeatures(c *Corpus, set features.Set, k int) ([]FeatureImportance, error) {
	corpus := c.trim(0, 1)
	ds, err := buildDataset(corpus, set, 1<<30)
	if err != nil {
		return nil, err
	}
	scores := ds.ChiSquare()
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] > scores[order[j]]
		}
		return ds.Vocab[order[i]] < ds.Vocab[order[j]]
	})
	if k > len(order) {
		k = len(order)
	}
	out := make([]FeatureImportance, 0, k)
	for _, idx := range order[:k] {
		out = append(out, FeatureImportance{Feature: ds.Vocab[idx], Chi2: scores[idx]})
	}
	return out, nil
}

// RenderTopFeatures prints the feature importance table.
func RenderTopFeatures(rows []FeatureImportance, set features.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5 — top chi-square features (%s set)\n", set)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-52s %10.1f\n", r.Feature, r.Chi2)
	}
	return b.String()
}
