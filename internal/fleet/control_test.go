package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"adwars/internal/artifact"
	"adwars/internal/chassis"
)

func newController(reps []string) *Controller {
	return &Controller{Replicas: reps, Log: io.Discard}
}

func TestRolloutConvergesFleet(t *testing.T) {
	v1 := sealedLists(t, "v1")
	reps := []*replica{
		newReplica(t, "r1", v1),
		newReplica(t, "r2", v1),
		newReplica(t, "r3", v1),
	}
	ctl := newController(urls(reps))

	v2 := sealedLists(t, "v2")
	wantVersion, err := artifact.Version(v2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Rollout(context.Background(), "lists", v2)
	if err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if res.Version != wantVersion || res.RolledBack || len(res.Updated) != 3 {
		t.Fatalf("result = %+v, want 3 updated on %s", res, wantVersion)
	}
	if len(res.Canaries) != 1 || res.Canaries[0] != reps[0].ts.URL {
		t.Errorf("canaries = %v, want [%s]", res.Canaries, reps[0].ts.URL)
	}
	for _, r := range reps {
		h := healthOf(t, r.ts.URL)
		if h.ListsVersion != wantVersion {
			t.Errorf("%s serves %s, want %s", r.id, h.ListsVersion, wantVersion)
		}
	}
	// Answers stay byte-identical across replicas after the rollout.
	_, want, _ := matchVia(t, reps[0].ts.URL)
	for _, r := range reps[1:] {
		if _, got, _ := matchVia(t, r.ts.URL); !bytes.Equal(got, want) {
			t.Errorf("%s answers differently after rollout", r.id)
		}
	}
}

func TestRolloutRefusesCorruptArtifactLocally(t *testing.T) {
	v1 := sealedLists(t, "v1")
	reps := []*replica{newReplica(t, "r1", v1), newReplica(t, "r2", v1)}
	ctl := newController(urls(reps))
	before := healthOf(t, reps[0].ts.URL).ListsVersion

	v2 := sealedLists(t, "v2")
	bad := bytes.Clone(v2)
	bad[len(bad)/4] ^= 0x01
	_, err := ctl.Rollout(context.Background(), "lists", bad)
	if !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("err = %v, want ErrBadArtifact", err)
	}
	// A well-formed snapshot without its trailer has no integrity story
	// over the network: refused here, as missing-trailer, like everywhere.
	unsealed := v2[:bytes.LastIndex(v2, []byte(artifact.TrailerPrefix))]
	_, err = ctl.Rollout(context.Background(), "lists", unsealed)
	var ce *artifact.CorruptError
	if !errors.Is(err, ErrBadArtifact) || !errors.As(err, &ce) || ce.Reason != "missing-trailer" {
		t.Fatalf("unsealed: err = %v, want ErrBadArtifact over missing-trailer", err)
	}
	// Nothing was pushed: both replicas untouched.
	for _, r := range reps {
		if got := healthOf(t, r.ts.URL).ListsVersion; got != before {
			t.Errorf("%s version changed to %s after local refusal", r.id, got)
		}
	}
}

func TestRolloutCanaryRejectionStopsAndFleetStaysGood(t *testing.T) {
	v1 := sealedLists(t, "v1")
	reps := []*replica{
		newReplica(t, "r1", v1),
		newReplica(t, "r2", v1),
		newReplica(t, "r3", v1),
	}
	ctl := newController(urls(reps))
	goodVersion := healthOf(t, reps[0].ts.URL).ListsVersion

	// A correctly sealed artifact whose payload is not a lists snapshot:
	// it passes the controller's integrity check, so only the canary's
	// parse can catch it — exactly the staged-rollout failure mode.
	poison := artifact.Seal([]byte(`{"format":"adwars-lists","version":1,"lists":`))
	res, err := ctl.Rollout(context.Background(), "lists", poison)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	if !res.RolledBack || len(res.Updated) != 0 {
		t.Fatalf("result = %+v, want rolled back with nothing left updated", res)
	}

	// The canary rejected (reload_rejected ticked, last reload recorded);
	// every replica — canary included — still serves last-good.
	ch := healthOf(t, reps[0].ts.URL)
	if ch.LastReload == nil || ch.LastReload.OK || !ch.LastReload.Rejected {
		t.Errorf("canary last_reload = %+v, want rejected", ch.LastReload)
	}
	for _, r := range reps {
		if got := healthOf(t, r.ts.URL).ListsVersion; got != goodVersion {
			t.Errorf("%s serves %s after canary rejection, want %s", r.id, got, goodVersion)
		}
		if status, _, _ := matchVia(t, r.ts.URL); status != http.StatusOK {
			t.Errorf("%s data plane broken after canary rejection", r.id)
		}
	}
	// Non-canary replicas never saw a push.
	for _, r := range reps[1:] {
		if h := healthOf(t, r.ts.URL); h.LastReload != nil && h.LastReload.Rejected {
			t.Errorf("%s saw a rejected push — rollout did not stop at the canary", r.id)
		}
	}
}

// fakeReplica accepts pushes like a real replica but lets the test script
// its vitals, to exercise bake-window degradation rollback — the one path
// a healthy real replica can't produce on demand.
type fakeReplica struct {
	mu             sync.Mutex
	installed      []byte
	reloadRejected uint64
	degradeOnce    bool       // tick reload_rejected after the next push
	pushed         time.Time  // when the last push arrived
	reads          []fakeRead // GETs of /healthz and /debug/vars, in order
	ts             *httptest.Server
}

type fakeRead struct {
	path string
	at   time.Time
}

func newFakeReplica(t *testing.T, seed []byte) *fakeReplica {
	f := &fakeReplica{installed: seed}
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/snapshot/lists", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			w.Write(f.installed)
		case http.MethodPost:
			body, _ := io.ReadAll(r.Body)
			version, err := artifact.Version(body)
			if err != nil {
				w.WriteHeader(http.StatusUnprocessableEntity)
				return
			}
			f.installed, f.pushed = body, time.Now()
			if f.degradeOnce {
				f.degradeOnce = false
				f.reloadRejected++ // as if a concurrent disk reload rejected
			}
			json.NewEncoder(w).Encode(map[string]any{"installed": true, "kind": "lists", "version": version})
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.reads = append(f.reads, fakeRead{r.URL.Path, time.Now()})
		version, _ := artifact.Version(f.installed)
		json.NewEncoder(w).Encode(chassis.Health{
			Status: "ok", Replica: "fake", Ready: true, Lists: true, ListsVersion: version,
		})
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.reads = append(f.reads, fakeRead{r.URL.Path, time.Now()})
		fmt.Fprintf(w, `{"adwars_serve":{"reload_rejected":%d,"reload_errors":0}}`, f.reloadRejected)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// log returns the reads f has answered and when its last push arrived.
func (f *fakeReplica) log() ([]fakeRead, time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.reads), f.pushed
}

func TestRolloutBakeDegradationRollsBackCanary(t *testing.T) {
	v1 := sealedLists(t, "v1")
	canary := newFakeReplica(t, v1)
	canary.degradeOnce = true
	follower := newReplica(t, "r2", v1)
	ctl := newController([]string{canary.ts.URL, follower.ts.URL})
	goodVersion, err := artifact.Version(v1)
	if err != nil {
		t.Fatal(err)
	}

	v2 := sealedLists(t, "v2")
	res, err := ctl.Rollout(context.Background(), "lists", v2)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack from bake degradation", err)
	}
	if !res.RolledBack {
		t.Fatalf("result = %+v, want rolled back", res)
	}

	// The canary was restored to last-good bytes, and the follower — never
	// pushed — still serves last-good too.
	canary.mu.Lock()
	restored := bytes.Clone(canary.installed)
	canary.mu.Unlock()
	if !bytes.Equal(restored, v1) {
		t.Error("canary not restored to last-good bytes after bake failure")
	}
	if got := healthOf(t, follower.ts.URL).ListsVersion; got != goodVersion {
		t.Errorf("follower serves %s, want untouched last-good %s", got, goodVersion)
	}
}

// TestRolloutReadsVitalsOncePerPoll: every poll reads each replica's
// /healthz and then its /debug/vars, once each. The follower, which
// installs on push, converges on its first poll: one pair. The canary's
// bake polls are the reads between its push and the follower's, and polls
// are a poll interval apart, so two /healthz reads closer than that are one
// poll reading twice.
func TestRolloutReadsVitalsOncePerPoll(t *testing.T) {
	v1 := sealedLists(t, "v1")
	canary, follower := newFakeReplica(t, v1), newFakeReplica(t, v1)
	ctl := newController([]string{canary.ts.URL, follower.ts.URL})
	if _, err := ctl.Rollout(context.Background(), "lists", sealedLists(t, "v2")); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	canaryReads, canaryPushed := canary.log()
	followerReads, followerPushed := follower.log()
	for _, c := range []struct {
		name  string
		reads []fakeRead
	}{{"canary", canaryReads}, {"follower", followerReads}} {
		for i, r := range c.reads {
			if want := []string{"/healthz", "/debug/vars"}[i%2]; r.path != want || len(c.reads)%2 != 0 {
				t.Fatalf("%s: read %d of %d is %s, want %s: reads come in /healthz, /debug/vars pairs", c.name, i, len(c.reads), r.path, want)
			}
		}
	}
	if len(followerReads) != 2 {
		t.Errorf("follower: %d reads, want one pair", len(followerReads))
	}
	var last time.Time
	bakePolls := 0
	for _, r := range canaryReads {
		if r.path != "/healthz" || !r.at.After(canaryPushed) || r.at.After(followerPushed) {
			continue
		}
		if bakePolls > 0 && r.at.Sub(last) < poll {
			t.Errorf("bake poll %d read /healthz %v after the one before, want >= %v: a poll read it twice", bakePolls+1, r.at.Sub(last), poll)
		}
		last = r.at
		bakePolls++
	}
	if bakePolls == 0 || bakePolls > int(bake/poll)+1 {
		t.Errorf("%d bake polls in a %v bake at %v", bakePolls, bake, poll)
	}
}

func TestStatusReportsFleet(t *testing.T) {
	v1 := sealedLists(t, "v1")
	r1 := newReplica(t, "r1", v1)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	ctl := newController([]string{r1.ts.URL, dead})

	sts := ctl.Status(context.Background())
	if len(sts) != 2 {
		t.Fatalf("status entries = %d, want 2", len(sts))
	}
	if !sts[0].Reachable || sts[0].Health == nil || sts[0].Health.Replica != "r1" {
		t.Errorf("live replica status = %+v", sts[0])
	}
	if sts[1].Reachable || sts[1].Err == "" {
		t.Errorf("dead replica status = %+v, want unreachable with error", sts[1])
	}
}
