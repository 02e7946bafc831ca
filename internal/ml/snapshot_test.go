package ml

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"adwars/internal/artifact"
	"adwars/internal/features"
)

func trainedSnapshot(t testing.TB) *ModelSnapshot {
	t.Helper()
	ds := synthDataset(t, 20, 120, 7)
	model, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return &ModelSnapshot{
		FeatureSet: "keyword",
		Vocab:      ds.Vocab,
		Model:      model,
		Meta:       ModelMeta{Positives: 20, Negatives: 120, TopK: 100, Seed: 7},
	}
}

func TestModelSnapshotRoundTrip(t *testing.T) {
	snap := trainedSnapshot(t)
	ds := synthDataset(t, 20, 120, 7)

	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModelSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	// A snapshot frozen under one user is served under another.
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("saved with mode %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseModelSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := artifact.Version(raw); got.Version != want || want == "" {
		t.Errorf("loaded snapshot carries version %q, the file's is %q", got.Version, want)
	}
	if got.FeatureSet != snap.FeatureSet {
		t.Errorf("feature set %q, want %q", got.FeatureSet, snap.FeatureSet)
	}
	if len(got.Vocab) != len(snap.Vocab) {
		t.Fatalf("vocab %d entries, want %d", len(got.Vocab), len(snap.Vocab))
	}
	for i := range got.Vocab {
		if got.Vocab[i] != snap.Vocab[i] {
			t.Fatalf("vocab[%d] = %q, want %q", i, got.Vocab[i], snap.Vocab[i])
		}
	}
	if got.Meta != snap.Meta {
		t.Errorf("meta %+v, want %+v", got.Meta, snap.Meta)
	}
	if got.Model.Rounds() != snap.Model.Rounds() {
		t.Fatalf("rounds %d, want %d", got.Model.Rounds(), snap.Model.Rounds())
	}
	if got.Model.AlphaSum() != snap.Model.AlphaSum() {
		t.Errorf("alpha sum %v, want %v", got.Model.AlphaSum(), snap.Model.AlphaSum())
	}
	// Decisions must be bit-identical, not merely close: the served model
	// has to agree with the trained one on every sample.
	for i, s := range ds.Samples {
		if g, w := got.Model.Decision(s), snap.Model.Decision(s); g != w {
			t.Fatalf("sample %d: decision %v != %v", i, g, w)
		}
	}
}

func TestModelSnapshotRejectsForeignAndFutureFiles(t *testing.T) {
	parse := func(payload string) error {
		_, err := ParseModelSnapshot(artifact.Seal([]byte(payload)))
		return err
	}
	if err := parse(`{"format":"something-else","version":2}`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("foreign format: err = %v, want ErrSnapshotFormat", err)
	}
	if err := parse(`not json`); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("garbage: err = %v, want ErrSnapshotFormat", err)
	}
	for _, v := range []string{"999", "1", "0"} {
		if err := parse(`{"format":"adwars-model","version":` + v + `,"classifier":"adaboost"}`); !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("version %s: err = %v, want ErrSnapshotVersion", v, err)
		}
	}
	if err := parse(`{"format":"adwars-model","version":2,"classifier":"forest","model":{}}`); err == nil ||
		errors.Is(err, artifact.ErrCorrupt) || errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("unknown classifier: err = %v, want its own error", err)
	}
}

func TestModelSnapshotWriteRequiresModel(t *testing.T) {
	if _, err := MarshalModelSnapshot(&ModelSnapshot{FeatureSet: "keyword"}); err == nil {
		t.Error("nil model must error")
	}
}

// sealedModelBytes writes the trained snapshot and returns the raw sealed
// file bytes for corruption tests.
func sealedModelBytes(t testing.TB) []byte {
	t.Helper()
	data, err := MarshalModelSnapshot(trainedSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestModelSnapshotIsSealed(t *testing.T) {
	data := sealedModelBytes(t)
	if !bytes.Contains(data, []byte(artifact.TrailerPrefix)) {
		t.Fatal("written snapshot carries no integrity trailer")
	}
	if !bytes.Contains(data, []byte(`"version":2`)) {
		t.Fatal("written snapshot is not schema version 2")
	}
	if _, err := ParseModelSnapshot(data); err != nil {
		t.Fatalf("clean sealed snapshot failed to load: %v", err)
	}
}

// modelCorruptions is the corruption matrix for sealed model files: each
// entry damages a clean file the way a torn write or bit rot would.
//
// named marks the classes the trailer can name precisely: those must wrap
// artifact.ErrCorrupt specifically (serving distinguishes "corrupt" from
// "foreign file" when counting rejected reloads).
var modelCorruptions = []struct {
	name   string
	named  bool
	mutate func([]byte) []byte
}{
	{"truncated mid-payload", false, func(b []byte) []byte { return b[:len(b)/2] }},
	{"trailer truncated away", true, func(b []byte) []byte {
		return b[:bytes.LastIndex(b, []byte(artifact.TrailerPrefix))]
	}},
	{"bit flip in payload", true, func(b []byte) []byte {
		b = bytes.Clone(b)
		b[bytes.LastIndex(b, []byte(artifact.TrailerPrefix))/2] ^= 0x01
		return b
	}},
	{"bit flip in trailer checksum", true, func(b []byte) []byte {
		b = bytes.Clone(b)
		i := bytes.LastIndex(b, []byte("crc64=")) + len("crc64=")
		if b[i] == 'f' {
			b[i] = '0'
		} else {
			b[i] = 'f'
		}
		return b
	}},
}

func TestModelSnapshotCorruptionDetected(t *testing.T) {
	data := sealedModelBytes(t)
	for _, tc := range modelCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseModelSnapshot(tc.mutate(data))
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("err = %v, want ErrCorrupt or ErrSnapshotFormat", err)
			}
			if tc.named && !errors.Is(err, artifact.ErrCorrupt) {
				t.Errorf("err = %v, want artifact.ErrCorrupt", err)
			}
		})
	}
}

// modelFile wraps a model document in a sealed snapshot over a
// three-feature vocabulary.
func modelFile(model string) []byte {
	return artifact.Seal([]byte(`{"format":"adwars-model","version":2,"classifier":"adaboost","feature_set":"keyword",` +
		`"vocab":["a:x","b:y","c:z"],"model":` + model + "}\n"))
}

// invalidModelFiles are snapshots that parse but describe a model that
// cannot be scored faithfully; each must be refused as model-invalid.
var invalidModelFiles = []struct{ name, model string }{
	{"unsorted support vector", `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[2,1]]}]}`},
	{"duplicated feature", `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[1,1]]}]}`},
	{"negative feature", `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[-1,2]]}]}`},
	{"feature beyond the vocabulary", `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[0,3]]}]}`},
	{"rbf without gamma", `{"alphas":[1],"models":[{"kernel":"rbf","bias":0,"coefs":[1],"vectors":[[0]]}]}`},
	{"negative gamma", `{"alphas":[1],"models":[{"kernel":"rbf","gamma":-0.05,"bias":0,"coefs":[1],"vectors":[[0]]}]}`},
	{"null round", `{"alphas":[1],"models":[null]}`},
	// Each weight is finite, their sum is not: every decision would be ±Inf
	// or NaN, and so would the score a consumer divides out of it.
	{"alphas overflowing their sum", `{"alphas":[1e308,1e308],"models":[` +
		`{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[0]]},{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[0]]}]}`},
	// An ensemble is scored under one kernel; training never writes rounds
	// of different widths.
	{"rounds of different gamma", `{"alphas":[1,1],"models":[` +
		`{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[0]]},{"kernel":"rbf","gamma":0.02,"bias":0,"coefs":[1],"vectors":[[0]]}]}`},
}

// linearModel is a round under the linear kernel earlier builds could
// write: refused as a kernel this build does not know, not as damage.
const linearModel = `{"alphas":[1],"models":[{"kernel":"linear","bias":0,"coefs":[1],"vectors":[[0]]}]}`

func TestModelSnapshotRefusesInvalidModels(t *testing.T) {
	wantInvalid := func(t *testing.T, err error) {
		t.Helper()
		var ce *artifact.CorruptError
		if !errors.As(err, &ce) || ce.Reason != "model-invalid" || !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("err = %v, want a model-invalid artifact.CorruptError", err)
		}
	}
	for _, tc := range invalidModelFiles {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseModelSnapshot(modelFile(tc.model))
			wantInvalid(t, err)
		})
	}
	t.Run("linear round", func(t *testing.T) {
		_, err := ParseModelSnapshot(modelFile(linearModel))
		if err == nil || !strings.Contains(err.Error(), `unknown kernel "linear"`) || errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("err = %v, want an unknown-kernel refusal", err)
		}
	})

	// The same shape with nothing wrong loads.
	ok := `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1,-1],"vectors":[[0,2],[]]}]}`
	if _, err := ParseModelSnapshot(modelFile(ok)); err != nil {
		t.Errorf("valid model refused: %v", err)
	}

	// The feature set and vocabulary are held to what a consumer can project
	// with (ModelSnapshot.Projection): a name listed twice would index only
	// its last position, so a support vector's feature at the other could
	// never fire.
	file := func(set, vocab, model string) []byte {
		return artifact.Seal([]byte(`{"format":"adwars-model","version":2,"classifier":"adaboost","feature_set":"` + set +
			`","vocab":` + vocab + `,"model":` + model + "}\n"))
	}
	for _, tc := range []struct{ name, set, vocab, model string }{
		{"repeated vocabulary name", "keyword", `["a:x","a:x","c:z"]`, ok},
		{"unknown feature set", "no-such-set", `["a:x","b:y","c:z"]`, ok},
		{"empty vocabulary", "keyword", `[]`, `{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":0,"coefs":[1],"vectors":[[]]}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseModelSnapshot(file(tc.set, tc.vocab, tc.model))
			wantInvalid(t, err)
		})
	}

	// JSON has no spelling for NaN or Inf, so non-finite weights are held
	// to the same refusal one level down.
	nan, inf := math.NaN(), math.Inf(1)
	round := func(gamma, bias, coef float64) *svmJSON {
		return &svmJSON{KernelType: "rbf", Gamma: gamma, Bias: bias, Coefs: []float64{coef}, Vectors: [][]int32{{0}}}
	}
	for name, j := range map[string]*adaBoostJSON{
		"NaN alpha":        {Alphas: []float64{nan}, Models: []*svmJSON{round(0.05, 0, 1)}},
		"infinite alpha":   {Alphas: []float64{inf}, Models: []*svmJSON{round(0.05, 0, 1)}},
		"NaN bias":         {Alphas: []float64{1}, Models: []*svmJSON{round(0.05, nan, 1)}},
		"infinite coef":    {Alphas: []float64{1}, Models: []*svmJSON{round(0.05, 0, -inf)}},
		"NaN gamma":        {Alphas: []float64{1}, Models: []*svmJSON{round(nan, 0, 1)}},
		"infinite gamma":   {Alphas: []float64{1}, Models: []*svmJSON{round(inf, 0, 1)}},
		"second round bad": {Alphas: []float64{1, 1}, Models: []*svmJSON{round(0.05, 0, 1), round(0.05, 0, nan)}},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := adaBoostFromJSON(j, 1)
			wantInvalid(t, err)
		})
	}
}

// FuzzReadModelSnapshot: loading never panics, whatever the bytes, and a
// model that loads has a finite Σ|αₜ| and scores fixed samples to finite
// decisions, without panicking. Every input is
// tried as given and again under a fresh integrity trailer, so that the
// fuzzer's edits reach the model loader behind the trailer's checksum.
// Seeds are the clean file, the corruption matrix, the invalid-model files
// and a linear round.
func FuzzReadModelSnapshot(f *testing.F) {
	data := sealedModelBytes(f)
	f.Add(data)
	for _, tc := range modelCorruptions {
		f.Add(tc.mutate(data))
	}
	for _, tc := range invalidModelFiles {
		f.Add(modelFile(tc.model))
	}
	f.Add(modelFile(linearModel))
	sample := features.Sample{0, 1, 2, 5, 8, 13, 21, 34, 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := data
		if i := bytes.LastIndex(data, []byte(artifact.TrailerPrefix)); i >= 0 {
			payload = data[:i]
		}
		for _, file := range [][]byte{data, artifact.Seal(payload)} {
			snap, err := ParseModelSnapshot(file)
			if err != nil {
				continue
			}
			if sum := snap.Model.AlphaSum(); !finite(sum) {
				t.Fatalf("loaded a model whose alphas sum to %v", sum)
			}
			for _, s := range []features.Sample{sample, nil} {
				if d := snap.Model.Decision(s); !finite(d) {
					t.Fatalf("loaded a model whose decision on %v is %v", s, d)
				}
			}
		}
	})
}

// TestModelSnapshotUnsealedRefused: a well-formed model document without a
// trailer — what a version-1 file was — is missing-trailer, and the same
// document sealed is refused by its version.
func TestModelSnapshotUnsealedRefused(t *testing.T) {
	v1 := `{"format":"adwars-model","version":1,"classifier":"adaboost",` +
		`"feature_set":"keyword","vocab":["Identifier:offsetHeight"],` +
		`"model":{"alphas":[1],"models":[{"kernel":"rbf","gamma":0.05,"bias":-0.5,"coefs":[1],"vectors":[[0]]}]}}` + "\n"
	_, err := ParseModelSnapshot([]byte(v1))
	var ce *artifact.CorruptError
	if !errors.As(err, &ce) || ce.Reason != "missing-trailer" {
		t.Errorf("unsealed: err = %v, want missing-trailer", err)
	}
	if _, err := ParseModelSnapshot(artifact.Seal([]byte(v1))); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("sealed v1: err = %v, want ErrSnapshotVersion", err)
	}
	v2 := strings.Replace(v1, `"version":1`, `"version":2`, 1)
	if _, err := ParseModelSnapshot(artifact.Seal([]byte(v2))); err != nil {
		t.Errorf("the same document as sealed v2: %v", err)
	}
}

// TestSnapshotKeepsNonUTF8Features trains on scripts whose literal texts
// are not valid UTF-8 as the source spells them: one whose 64-byte cut
// falls inside an é, and one whose \xNN escapes decode to bytes no UTF-8
// sequence holds. The snapshot stores the vocabulary as JSON, which
// rewrites invalid UTF-8; the walk must therefore name each such text in
// valid UTF-8, so that the loaded model's vocabulary is the trained one and
// the features still fire against it.
func TestSnapshotKeepsNonUTF8Features(t *testing.T) {
	cut := `x("` + strings.Repeat("a", 63) + `é");`
	latin := `y("\xe9t\xe9");`
	var scripts []string
	var labels []int
	for i := 0; i < 8; i++ {
		pos := fmt.Sprintf("var n%d = %d;", i, i)
		if i%2 == 0 {
			pos += cut
		} else {
			pos += latin
		}
		if i%3 == 0 {
			pos += cut + latin
		}
		scripts = append(scripts, pos, fmt.Sprintf(`z("benign%d"); w("%d");`, i%3, i))
		labels = append(labels, +1, -1)
	}
	var sets []map[string]bool
	for _, src := range scripts {
		fs, err := features.ExtractSource(src, features.SetLiteral)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, fs)
	}
	ds, err := features.Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	traps := 0
	for _, f := range ds.Vocab {
		text, literal := strings.CutPrefix(f, "Literal:")
		if literal && (strings.HasPrefix(text, "aaa") || strings.ContainsFunc(text, func(r rune) bool { return r >= utf8.RuneSelf })) {
			traps++
		}
	}
	if traps != 2 {
		t.Fatalf("vocabulary %q: want the two trap literals in it", ds.Vocab)
	}
	model, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	snap := &ModelSnapshot{FeatureSet: "literal", Vocab: ds.Vocab, Model: model}
	data, err := MarshalModelSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseModelSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded.Vocab, snap.Vocab) {
		t.Fatalf("vocabulary after a save and a load:\n%q\nwant\n%q", loaded.Vocab, snap.Vocab)
	}
	set, trained, err := snap.Projection()
	if err != nil {
		t.Fatal(err)
	}
	_, served, err := loaded.Projection()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range scripts {
		a, err := trained.ProjectSource(src, set)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := served.ProjectSource(src, set)
		da, db := snap.Model.Decision(a), loaded.Model.Decision(b)
		if !slices.Equal(a, b) || math.Float64bits(da) != math.Float64bits(db) {
			t.Errorf("%s: served sample %v decides %v, trained %v decides %v", src, b, db, a, da)
		}
	}
}
