package ml

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// svmRoundTrip sends m through the JSON form a model snapshot stores each
// round in, and back over a space of numFeatures features.
func svmRoundTrip(t *testing.T, m *SVM, numFeatures int) *SVM {
	t.Helper()
	data, err := json.Marshal(m.toJSON())
	if err != nil {
		t.Fatal(err)
	}
	var back svmJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := svmFromJSON(&back, numFeatures)
	if err != nil {
		t.Fatal(err)
	}
	compile(got)
	return got
}

// adaBoostRoundTrip writes a as the model of a sealed snapshot over vocab
// and returns the model ParseModelSnapshot reads back.
func adaBoostRoundTrip(t *testing.T, a *AdaBoost, vocab []string) *AdaBoost {
	t.Helper()
	data, err := MarshalModelSnapshot(&ModelSnapshot{FeatureSet: "keyword", Vocab: vocab, Model: a})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseModelSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Model
}

func TestSVMSerializationRoundTrip(t *testing.T) {
	ds := synthDataset(t, 20, 60, 31)
	m, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	back := svmRoundTrip(t, m, ds.NumFeatures())
	for i, s := range ds.Samples {
		if m.Predict(s) != back.Predict(s) {
			t.Fatalf("sample %d: prediction changed after round trip", i)
		}
		if d1, d2 := m.Decision(s), back.Decision(s); d1 != d2 {
			t.Fatalf("sample %d: decision %v != %v", i, d1, d2)
		}
	}
}

func TestAdaBoostSerializationRoundTrip(t *testing.T) {
	ds := synthDataset(t, 20, 60, 32)
	m, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	back := adaBoostRoundTrip(t, m, ds.Vocab)
	if back.Rounds() != m.Rounds() {
		t.Fatalf("rounds %d != %d", back.Rounds(), m.Rounds())
	}
	for i, s := range ds.Samples {
		if m.Predict(s) != back.Predict(s) {
			t.Fatalf("sample %d: prediction changed after round trip", i)
		}
	}
}

func TestSerializationErrors(t *testing.T) {
	for _, doc := range []string{`{"kernel":"warp-drive"}`, `{"kernel":"rbf","gamma":0.05,"coefs":[1],"vectors":[]}`} {
		var j svmJSON
		if err := json.Unmarshal([]byte(doc), &j); err != nil {
			t.Fatal(err)
		}
		if _, err := svmFromJSON(&j, 1); err == nil {
			t.Errorf("%s: want an error (unknown kernel, coef/vector mismatch)", doc)
		}
	}
	if _, err := adaBoostFromJSON(&adaBoostJSON{Alphas: []float64{1, 2}}, 1); err == nil {
		t.Error("alpha/model mismatch must error")
	}
	if _, err := ParseModelSnapshot(modelFile(`"not a model"`)); err == nil {
		t.Error("a model field that is not a model must error")
	}
}
