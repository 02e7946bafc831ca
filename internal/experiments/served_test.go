package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"adwars/internal/ml"
	"adwars/internal/serve"
)

// TestLiveModelTestIsTheServedAnswer: §5's live model test and /v1/classify
// make one decision. The headline model, sealed as adwars-detect writes it
// and installed in a replica, answers the live crawl's eligible scripts
// through /v1/classify/batch (at most 256 a batch, the endpoint's limit):
// as many slots say anti_adblock as LiveModelTest detected, and as many are
// free of an error as it scored. In process: Handler() under httptest.
func TestLiveModelTestIsTheServedAnswer(t *testing.T) {
	const seed, excludeTopN, maxBatch = 3, 5000, 256
	l, retro := lab(t)
	corpus := &Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	live, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := LiveModelTest(corpus, live.Scripts, excludeTopN, seed, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Scripts == 0 {
		t.Fatal("the live test scored no script: nothing to compare")
	}

	snap, err := TrainHeadlineModel(corpus, seed, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ml.MarshalModelSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snapshot")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{ModelPath: path})
	if err := srv.ReloadSnapshots(); err != nil {
		t.Fatalf("the replica refuses the headline model: %v", err)
	}
	h := srv.Handler()

	eligible := eligibleLiveScripts(live.Scripts, excludeTopN)
	detected, scored := 0, 0
	for lo := 0; lo < len(eligible); lo += maxBatch {
		batch := eligible[lo:min(lo+maxBatch, len(eligible))]
		body, err := json.Marshal(struct {
			Scripts []string `json:"scripts"`
		}{batch})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/classify/batch", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("batch at %d: status %d: %s", lo, rec.Code, rec.Body.Bytes())
		}
		var got struct {
			Results []struct {
				AntiAdblock bool   `json:"anti_adblock"`
				Error       string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(batch) {
			t.Fatalf("batch at %d: %d slots for %d scripts", lo, len(got.Results), len(batch))
		}
		for _, r := range got.Results {
			if r.Error == "" {
				scored++
			}
			if r.AntiAdblock {
				detected++
			}
		}
	}
	if detected != want.Detected || scored != want.Scripts {
		t.Errorf("served: %d anti_adblock of %d scored; LiveModelTest: %d detected of %d",
			detected, scored, want.Detected, want.Scripts)
	}
	t.Logf("%d eligible live scripts: %d scored, %d detected", len(eligible), want.Scripts, want.Detected)
}
