package ml

import (
	"fmt"
	"math"

	"adwars/internal/artifact"
	"adwars/internal/features"
)

// Serialized model form. The paper's online deployment ships the trained
// model inside adblockers; these types are the model field of a model
// snapshot (support vectors, coefficients, ensemble weights), the one file a
// trained model is written to.

type svmJSON struct {
	KernelType string    `json:"kernel"`
	Gamma      float64   `json:"gamma"`
	Bias       float64   `json:"bias"`
	Coefs      []float64 `json:"coefs"`
	Vectors    [][]int32 `json:"vectors"`
}

type adaBoostJSON struct {
	Alphas []float64  `json:"alphas"`
	Models []*svmJSON `json:"models"`
}

func (m *SVM) toJSON() *svmJSON {
	out := &svmJSON{KernelType: "rbf", Gamma: m.kernel.Gamma, Bias: m.bias, Coefs: m.coefs}
	for _, v := range m.vectors {
		out.Vectors = append(out.Vectors, []int32(v))
	}
	return out
}

func (a *AdaBoost) toJSON() *adaBoostJSON {
	out := &adaBoostJSON{Alphas: a.alphas}
	for _, m := range a.models {
		out.Models = append(out.Models, m.toJSON())
	}
	return out
}

// invalidModel reports model content that parses but cannot be scored
// faithfully. It wraps artifact.ErrCorrupt, so a serving process refuses
// the file as damaged and keeps its last-good model.
func invalidModel(format string, args ...any) error {
	return artifact.Corruptf("model-invalid", format, args...)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// svmFromJSON validates j against a feature space of numFeatures indices
// and returns the SVM it describes, not yet compiled for scoring.
func svmFromJSON(j *svmJSON, numFeatures int) (*SVM, error) {
	if j.KernelType != "rbf" {
		return nil, fmt.Errorf("ml: unknown kernel %q", j.KernelType)
	}
	if !(j.Gamma > 0) || !finite(j.Gamma) {
		return nil, invalidModel("rbf gamma %v, want a finite value > 0", j.Gamma)
	}
	m := &SVM{kernel: RBF{Gamma: j.Gamma}, bias: j.Bias, coefs: j.Coefs}
	if len(j.Coefs) != len(j.Vectors) {
		return nil, fmt.Errorf("ml: %d coefs for %d support vectors", len(j.Coefs), len(j.Vectors))
	}
	if !finite(j.Bias) {
		return nil, invalidModel("bias %v", j.Bias)
	}
	for i, c := range j.Coefs {
		if !finite(c) {
			return nil, invalidModel("coefficient %d is %v", i, c)
		}
	}
	for i, v := range j.Vectors {
		prev := int32(-1)
		for _, f := range v {
			if f <= prev {
				return nil, invalidModel("support vector %d: feature %d after %d (want sorted, distinct, non-negative)", i, f, prev)
			}
			prev = f
		}
		if int(prev) >= numFeatures {
			return nil, invalidModel("support vector %d: feature %d in a space of %d features", i, prev, numFeatures)
		}
		m.vectors = append(m.vectors, features.Sample(v))
	}
	return m, nil
}

// adaBoostFromJSON validates j against a feature space of numFeatures
// indices and returns the compiled ensemble it describes.
func adaBoostFromJSON(j *adaBoostJSON, numFeatures int) (*AdaBoost, error) {
	if len(j.Alphas) != len(j.Models) {
		return nil, fmt.Errorf("ml: %d alphas for %d models", len(j.Alphas), len(j.Models))
	}
	a := &AdaBoost{alphas: j.Alphas}
	for t, mj := range j.Models {
		if !finite(j.Alphas[t]) {
			return nil, invalidModel("alpha %d is %v", t, j.Alphas[t])
		}
		if mj == nil {
			return nil, invalidModel("round %d is null", t)
		}
		m, err := svmFromJSON(mj, numFeatures)
		if err != nil {
			return nil, err
		}
		// An ensemble is scored under one kernel (compile); training
		// gives every round the same γ.
		if t > 0 && m.kernel != a.models[0].kernel {
			return nil, invalidModel("round %d has rbf gamma %v, round 0 %v", t, m.kernel.Gamma, a.models[0].kernel.Gamma)
		}
		a.models = append(a.models, m)
	}
	// Each weight finite is not enough: |Decision| ≤ Σ|αₜ| holds in floating
	// point too, so a finite sum is what keeps every decision, and the score
	// a consumer divides out of it, finite.
	if sum := a.AlphaSum(); !finite(sum) {
		return nil, invalidModel("alphas sum to %v", sum)
	}
	a.sc = compile(a.models...)
	return a, nil
}
