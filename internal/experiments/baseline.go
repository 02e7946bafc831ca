package experiments

import (
	"fmt"
	"strings"

	"adwars/internal/features"
	"adwars/internal/signatures"
)

// BaselineResult compares the paper's ML classifier with the
// signature-based approach of Storey et al. (§2.2) on the same corpus.
type BaselineResult struct {
	SignatureTP, SignatureFP float64
	MLTP, MLFP               float64
	Matched                  map[string]int // signature name → hit count on positives
}

// CompareBaselines evaluates hand-written signatures and the headline ML
// configuration (AdaBoost+SVM, keyword top-1K, 10-fold CV) on one corpus.
// The ML classifier should dominate on randomized builds while signatures
// stay near-zero FP — the trade-off §5 motivates.
func CompareBaselines(c *Corpus, seed int64) (*BaselineResult, error) {
	corpus := c.trim(0, seed)
	out := &BaselineResult{Matched: map[string]int{}}

	det := signatures.New(nil)
	tp, fn, fp, tn := det.Evaluate(corpus.Positives, corpus.Negatives)
	out.SignatureTP = signatures.TPRate(tp, fn)
	out.SignatureFP = signatures.FPRate(fp, tn)
	for _, src := range corpus.Positives {
		for _, name := range det.Match(src) {
			out.Matched[name]++
		}
	}

	ds, err := buildDataset(corpus, features.SetKeyword, 1000)
	if err != nil {
		return nil, err
	}
	n := positiveCount(ds)
	if n < 2 {
		return nil, fmt.Errorf("experiments: only %d positives, the baseline's cross-validation needs 2", n)
	}
	conf, err := crossValidate(ds, min(10, n), seed, true)
	if err != nil {
		return nil, err
	}
	out.MLTP = conf.TPRate()
	out.MLFP = conf.FPRate()
	return out, nil
}

func positiveCount(ds *features.Dataset) int {
	n := 0
	for _, l := range ds.Labels {
		if l > 0 {
			n++
		}
	}
	return n
}

// Render prints the comparison.
func (r *BaselineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5 baseline — signatures (Storey et al.) vs ML classifier\n")
	fmt.Fprintf(&b, "%-28s %8s %8s\n", "approach", "TP rate", "FP rate")
	fmt.Fprintf(&b, "%-28s %7.1f%% %7.1f%%\n", "hand-written signatures",
		100*r.SignatureTP, 100*r.SignatureFP)
	fmt.Fprintf(&b, "%-28s %7.1f%% %7.1f%%\n", "AdaBoost+SVM (keyword 1K)",
		100*r.MLTP, 100*r.MLFP)
	return b.String()
}
