package serve

import (
	"os"
	"path/filepath"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
	"adwars/internal/ml"
)

// The test model is hand-built rather than trained: a single RBF component
// whose decision arithmetic is exact in IEEE754, so golden responses carry
// exact scores on every platform. On the two-feature vocabulary a sample's
// distance to the one support vector {0, 1} is an integer d, and with
// γ = 1000 the kernel exp(-1000·d) is exactly 1 at d = 0 and underflows to
// exactly 0 for d ≥ 1 (exp(-1000) is far below the smallest subnormal): the
// decision is +0.5 or -0.5, nothing between. vocab[0]=offsetHeight,
// vocab[1]=offsetWidth; a script with both probes scores 1.0, anything else
// 0.0.
const testModelJSON = `{
  "format": "adwars-model",
  "version": 2,
  "classifier": "adaboost",
  "feature_set": "keyword",
  "vocab": ["Identifier:offsetHeight", "Identifier:offsetWidth"],
  "model": {
    "alphas": [2],
    "models": [{"kernel": "rbf", "gamma": 1000, "bias": -0.5, "coefs": [1], "vectors": [[0, 1]]}]
  },
  "meta": {"top_k": 2}
}`

const testAntiScript = `function detect() { var ad = document.getElementById("ad-banner"); if (ad.offsetHeight === 0 || ad.offsetWidth === 0) { showAdblockNotice(); } }`

const testBenignScript = `function greet(name) { var msg = "hello " + name; return msg.length; }`

const testListA = `! test list A
||ads.example.com^
@@||ads.example.com/allowed$script
/adframe/$third-party
##.ad-banner
`

const testListB = `! test list B
||tracker.example^$script
`

// testListsSnapshot compiles the two fixture lists into a snapshot.
func testListsSnapshot(t *testing.T) *abp.ListsSnapshot {
	t.Helper()
	la, errs := abp.ParseAndBuild("list-a", testListA)
	if len(errs) != 0 {
		t.Fatalf("list A parse errors: %v", errs)
	}
	lb, errs := abp.ParseAndBuild("list-b", testListB)
	if len(errs) != 0 {
		t.Fatalf("list B parse errors: %v", errs)
	}
	return &abp.ListsSnapshot{Label: "test", Lists: []*abp.List{la, lb}}
}

// testModelFile is the hand-built model as the file adwars-detect would
// have written.
func testModelFile() []byte { return artifact.Seal([]byte(testModelJSON)) }

// testModelSnapshot parses the hand-built model.
func testModelSnapshot(t *testing.T) *ml.ModelSnapshot {
	t.Helper()
	snap, err := ml.ParseModelSnapshot(testModelFile())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// newServer builds a server and closes its analytics collector when the
// test ends.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.CloseAnalytics() })
	return s
}

// newTestServer builds a server with both fixture snapshots installed.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newServer(t, cfg)
	setModel(t, s, testModelSnapshot(t))
	setLists(t, s, testListsSnapshot(t))
	return s
}

// setModel and setLists install a snapshot as ReloadSnapshots does, less the
// artifact version: the goldens carry none. The lists the tests install are
// assembled in memory and have none; the model is parsed from its file, so
// setModel installs a copy without it.
func setModel(t testing.TB, s *Server, snap *ml.ModelSnapshot) {
	t.Helper()
	unversioned := *snap
	unversioned.Version = ""
	ms, err := prepareModel(&unversioned, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.model.Store(ms)
}

func setLists(t testing.TB, s *Server, snap *abp.ListsSnapshot) {
	t.Helper()
	ls, err := s.prepareLists(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.lists.Store(ls)
}

// writeSnapshotFiles writes both fixture snapshots into dir and returns
// their paths, for reload-from-disk tests.
func writeSnapshotFiles(t *testing.T, dir string) (modelPath, listsPath string) {
	t.Helper()
	modelPath = filepath.Join(dir, "model.json")
	listsPath = filepath.Join(dir, "lists.json")
	if err := os.WriteFile(modelPath, testModelFile(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := abp.SaveListsSnapshot(listsPath, testListsSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	return modelPath, listsPath
}

// errorResponse is the error envelope as the tests read it.
type errorResponse struct {
	Error struct{ Code, Message string } `json:"error"`
}

func TestSnapshotValidation(t *testing.T) {
	s := newServer(t, Config{})
	if _, err := prepareModel(&ml.ModelSnapshot{FeatureSet: "bogus"}, nil); err == nil {
		t.Error("unknown feature set must be rejected")
	}
	snap := testModelSnapshot(t)
	snap.Vocab = nil
	if _, err := prepareModel(snap, nil); err == nil {
		t.Error("empty vocab must be rejected")
	}
	if _, err := s.prepareLists(&abp.ListsSnapshot{}, nil); err == nil {
		t.Error("empty lists snapshot must be rejected")
	}
}
