package adwars

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/artifact"
	"adwars/internal/serve"
)

func TestCompileFilterList(t *testing.T) {
	list, errs := CompileFilterList("t", `
! comment
||pagefair.com^$third-party
smashboards.com###noticeMain
@@||numerama.com/ads.js
`)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if list.Len() != 3 {
		t.Fatalf("rules = %d, want 3", list.Len())
	}
	dec, rule := list.MatchRequest(HTTPRequest{
		URL: "http://pagefair.com/x.js", Type: "script", PageDomain: "pub.com",
	})
	if dec.String() != "blocked" || rule == nil {
		t.Fatalf("decision = %v", dec)
	}
}

func TestParseFilterRule(t *testing.T) {
	r, err := ParseFilterRule("||example.com^$script,domain=pub.com")
	if err != nil {
		t.Fatal(err)
	}
	if !r.DomainAnchor || len(r.Domains()) != 1 {
		t.Fatalf("parse wrong: %+v", r)
	}
	if _, err := ParseFilterRule("! comment"); err == nil {
		t.Fatal("comment should error")
	}
}

func TestWorldAndListsFacade(t *testing.T) {
	world := NewWorld(ScaledWorldConfig(9, 100))
	if world.Universe.Len() != 1000 {
		t.Fatalf("universe = %d", world.Universe.Len())
	}
	lists := GenerateFilterLists(world, 9)
	if lists.AAK == nil || lists.Combined == nil {
		t.Fatal("missing histories")
	}
	rev, ok := lists.Combined.Latest()
	if !ok || len(rev.Rules) == 0 {
		t.Fatal("empty combined list")
	}
}

func TestDetectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pos, neg []string
	for i := 0; i < 30; i++ {
		pos = append(pos,
			antiadblock.HTMLBaitScript("n", rng, antiadblock.GenOptions{}),
			antiadblock.HTTPBaitScript("http://x.com/ads.js", "n", rng, antiadblock.GenOptions{}))
		neg = append(neg,
			antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{}),
			antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{}))
	}
	det, err := TrainDetector(pos, neg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if det.NumFeatures() == 0 {
		t.Fatal("no features")
	}
	got, err := det.IsAntiAdblock(antiadblock.HTMLBaitScript("other", rng, antiadblock.GenOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("unseen bait script should classify positive")
	}
	got, err = det.IsAntiAdblock(antiadblock.RandomBenignScript(rng, antiadblock.GenOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("benign script should classify negative")
	}
	if _, err := det.IsAntiAdblock("((("); err == nil {
		t.Error("unparseable script must error")
	}
}

func TestTrainDetectorErrors(t *testing.T) {
	if _, err := TrainDetector([]string{"((("}, []string{")"}, 1); err == nil {
		t.Fatal("all-unparseable corpus must error")
	}
}

// detectorCorpus is a small generated training corpus — vendor scripts
// against benign ones, an unparseable script in each class, and a few
// scripts under the other class's label so that boosting runs several
// rounds — plus held-out scripts the detector never trained on.
func detectorCorpus() (pos, neg, held []string) {
	rng := rand.New(rand.NewSource(5))
	opt := antiadblock.GenOptions{PackProbability: 0.2}
	pos = append(pos, "(((")
	neg = append(neg, ")")
	for i := 0; i < 30; i++ {
		v := antiadblock.Catalog[i%len(antiadblock.Catalog)]
		pos = append(pos, antiadblock.VendorScript(v, "http://pub.example/ads.js", "n", rng, opt))
		for j := 0; j < 3; j++ {
			neg = append(neg, antiadblock.RandomBenignScript(rng, opt))
		}
	}
	for i := 0; i < 4; i++ {
		pos = append(pos, antiadblock.RandomBenignScript(rng, opt))
		neg = append(neg, antiadblock.HTMLBaitScript("m", rng, opt))
	}
	for i := 0; i < 20; i++ {
		held = append(held,
			antiadblock.HTMLBaitScript("h", rng, opt),
			antiadblock.HTTPBaitScript("http://other.example/ads.js", "h", rng, opt),
			antiadblock.RandomBenignScript(rng, opt))
	}
	return pos, neg, held
}

// TestTrainDetectorPinned folds the bits of every decision value the
// detector trained on detectorCorpus gives its training and held-out
// scripts into one checksum, and holds it to the literal the detector's
// own training path (sequential extraction, its own selection and boosting
// calls) computed before TrainDetector went through the experiments
// pipeline's untrimmed step: the model must be the same to the bit.
func TestTrainDetectorPinned(t *testing.T) {
	pos, neg, held := detectorCorpus()
	det, err := TrainDetector(pos, neg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var bits []byte
	for _, src := range append(append(append([]string(nil), pos...), neg...), held...) {
		sample, err := det.vocab.ProjectSource(src, det.set)
		if err != nil {
			continue
		}
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(det.snap.Model.Decision(sample)))
	}
	if got, want := len(bits)/8, 188; got != want {
		t.Fatalf("%d scripts scored, want %d", got, want)
	}
	if det.NumFeatures() != 75 || det.snap.Model.Rounds() != 9 {
		t.Errorf("%d features, %d rounds; want 75 and 9", det.NumFeatures(), det.snap.Model.Rounds())
	}
	if got, want := artifact.Checksum(bits), uint64(0x8fab8eef952e0511); got != want {
		t.Errorf("decisions checksum to %#016x, want %#016x", got, want)
	}
}

func TestDetectorSerializationRoundTrip(t *testing.T) {
	pos, neg, held := detectorCorpus()
	det, err := TrainDetector(pos, neg, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Detector
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != det.NumFeatures() {
		t.Fatalf("features %d != %d", back.NumFeatures(), det.NumFeatures())
	}
	// Decisions must survive the round trip.
	for _, src := range held {
		a, err := det.IsAntiAdblock(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.IsAntiAdblock(src)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("prediction changed after round trip")
		}
	}
	// The loaded detector writes the bytes it was read from.
	if again, err := back.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("re-marshalled bytes differ (err %v)", err)
	}
	// Damaged or unsealed bytes are refused, and leave the detector as it was.
	damaged := bytes.Clone(data)
	damaged[len(damaged)/3] ^= 0x20
	unsealed := data[:bytes.LastIndex(data, []byte(artifact.TrailerPrefix))]
	for name, bad := range map[string][]byte{"damaged": damaged, "unsealed": unsealed} {
		if err := back.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s bytes loaded", name)
		}
	}
	if back.NumFeatures() != det.NumFeatures() {
		t.Error("a refused load changed the detector")
	}
}

// TestDetectorIsTheServedModel: the library's detector and the service are
// one artifact. The bytes a trained Detector writes are a model file
// adwars-serve loads, and the server answers every script as the detector
// does, reporting the file's artifact version.
func TestDetectorIsTheServedModel(t *testing.T) {
	pos, neg, held := detectorCorpus()
	det, err := TrainDetector(pos, neg, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	version, err := artifact.Version(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snapshot")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{ModelPath: path})
	t.Cleanup(func() { srv.CloseAnalytics() })
	if err := srv.ReloadSnapshots(); err != nil {
		t.Fatalf("the server refuses the detector's bytes: %v", err)
	}
	h := srv.Handler()
	scripts := append(append([]string(nil), pos[1:26]...), held[:25]...)
	for i, src := range scripts {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/classify", strings.NewReader(src)))
		if rec.Code != 200 {
			t.Fatalf("script %d: classify = %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		var got struct {
			AntiAdblock bool    `json:"anti_adblock"`
			Decision    float64 `json:"decision"`
			Snapshot    struct {
				Model struct{ Version string } `json:"model"`
			} `json:"snapshot"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want, err := det.IsAntiAdblock(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.AntiAdblock != want {
			t.Errorf("script %d: served anti_adblock %v, detector %v", i, got.AntiAdblock, want)
		}
		sample, _ := det.vocab.ProjectSource(src, det.set)
		if d := det.snap.Model.Decision(sample); got.Decision != d {
			t.Errorf("script %d: served decision %v, detector %v", i, got.Decision, d)
		}
		if got.Snapshot.Model.Version != version {
			t.Fatalf("script %d: served model version %q, the bytes' is %q", i, got.Snapshot.Model.Version, version)
		}
	}
}
