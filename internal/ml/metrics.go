package ml

import (
	"fmt"

	"adwars/internal/features"
)

// Confusion is a binary confusion matrix with the positive class = +1
// (anti-adblock scripts).
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates another confusion matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Observe records one prediction against its true label.
func (c *Confusion) Observe(label, pred int) {
	switch {
	case label > 0 && pred > 0:
		c.TP++
	case label > 0:
		c.FN++
	case pred > 0:
		c.FP++
	default:
		c.TN++
	}
}

// TPRate is the fraction of positives classified positive — the paper's
// "TP rate" (detection rate).
func (c Confusion) TPRate() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPRate is the fraction of negatives classified positive — the paper's
// "FP rate".
func (c Confusion) FPRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// String renders the matrix with the paper's headline rates.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d (TP rate %.1f%%, FP rate %.1f%%)",
		c.TP, c.FP, c.TN, c.FN, 100*c.TPRate(), 100*c.FPRate())
}

// Evaluate runs the classifier over a labeled dataset and returns its
// confusion matrix.
func Evaluate(m Classifier, ds *features.Dataset) Confusion {
	var c Confusion
	for i, s := range ds.Samples {
		c.Observe(ds.Labels[i], m.Predict(s))
	}
	return c
}
