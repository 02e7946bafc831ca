package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"adwars/internal/artifact"
	"adwars/internal/chassis"
)

// ErrBadArtifact marks a rollout refused locally: the candidate artifact
// failed its integrity check before a single byte reached the fleet.
var ErrBadArtifact = errors.New("fleet: artifact refused locally")

// ErrRolledBack marks a rollout that was pushed, failed at some stage,
// and was automatically reverted to the captured last-good snapshots.
var ErrRolledBack = errors.New("fleet: rollout rolled back")

// Controller is the snapshot control plane: it versions sealed snapshot
// artifacts and pushes them through the fleet in stages (canary first),
// rolling back to last-good when a stage rejects or degrades.
type Controller struct {
	// Replicas are the replica base URLs in stage order: the first is the
	// canary stage, the rest the fleet stage.
	Replicas []string
	// Log, when non-nil, receives rollout progress lines.
	Log io.Writer
}

const (
	// bake is how long the canary is observed after installing before the
	// fleet stage proceeds.
	bake = 500 * time.Millisecond
	// poll is the observation cadence during bake and convergence.
	poll = 100 * time.Millisecond
	// watch bounds the post-rollout convergence check.
	watch = 5 * time.Second
	// replicaTimeout bounds one replica HTTP exchange.
	replicaTimeout = 3 * time.Second
)

func (c *Controller) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

func normalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return u
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimSuffix(u, "/")
}

// ReplicaStatus is one replica's view in a fleet status report.
type ReplicaStatus struct {
	URL       string          `json:"url"`
	Reachable bool            `json:"reachable"`
	Err       string          `json:"error,omitempty"`
	Health    *chassis.Health `json:"health,omitempty"`
}

// Status polls every replica's /healthz.
func (c *Controller) Status(ctx context.Context) []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(c.Replicas))
	for _, r := range c.Replicas {
		url := normalizeURL(r)
		st := ReplicaStatus{URL: url}
		var h chassis.Health
		if err := c.getJSON(ctx, url+"/healthz", &h); err != nil {
			st.Err = err.Error()
		} else {
			st.Reachable = true
			st.Health = &h
		}
		out = append(out, st)
	}
	return out
}

// RolloutResult summarizes one staged rollout attempt.
type RolloutResult struct {
	Kind       string   `json:"kind"`
	Version    string   `json:"version"`
	Canaries   []string `json:"canaries"`
	Updated    []string `json:"updated"`
	RolledBack bool     `json:"rolled_back,omitempty"`
	Reason     string   `json:"reason,omitempty"`
}

// Rollout pushes the sealed artifact data as the fleet's new snapshot of
// the given kind ("lists" or "model"), canary stage first. Returns
// ErrBadArtifact when the artifact fails local verification (nothing
// pushed), and ErrRolledBack when a stage failed and every replica that
// had installed the new version was reverted to its last-good bytes.
func (c *Controller) Rollout(ctx context.Context, kind string, data []byte) (*RolloutResult, error) {
	if len(c.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	// Stage 0: local verification. The controller treats the payload as
	// opaque (replicas parse it), but a broken seal never leaves this
	// process.
	version, err := artifact.Version(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadArtifact, err)
	}
	canary := normalizeURL(c.Replicas[0])
	res := &RolloutResult{Kind: kind, Version: version, Canaries: []string{canary}}
	c.logf("rollout %s version=%s replicas=%d canary=%s", kind, version, len(c.Replicas), canary)

	// Stage 1: capture last-good bytes from every replica so rollback has
	// something to restore. A replica without an artifact-backed snapshot
	// (404) simply has nothing to roll back to.
	lastGood := make(map[string][]byte, len(c.Replicas))
	for _, r := range c.Replicas {
		url := normalizeURL(r)
		raw, err := c.pull(ctx, url, kind)
		if err != nil {
			c.logf("  last-good capture %s: %v (no rollback target for this replica)", url, err)
			continue
		}
		lastGood[url] = raw
	}

	fail := func(stage, replica string, cause error) (*RolloutResult, error) {
		res.Reason = fmt.Sprintf("%s stage failed at %s: %v", stage, replica, cause)
		c.logf("  %s — rolling back %d replica(s)", res.Reason, len(res.Updated))
		c.rollback(ctx, kind, res.Updated, lastGood)
		res.RolledBack = true
		res.Updated = nil
		return res, fmt.Errorf("%w: %s", ErrRolledBack, res.Reason)
	}

	// Stage 2: canary push + bake. The reload-counter baseline is taken
	// before the push: a successful install ticks neither failure counter,
	// so anything that does tick during the bake — including damage the
	// push itself set off — reads as degradation.
	baseline, err := c.vitals(ctx, canary)
	if err != nil {
		return fail("canary", canary, err)
	}
	// Push is synchronous verification — the replica verifies, parses,
	// persists, and installs before answering — so a 422 here is the
	// canary refusing the snapshot.
	if err := c.push(ctx, canary, kind, version, data); err != nil {
		return fail("canary", canary, err)
	}
	res.Updated = append(res.Updated, canary)
	c.logf("  canary %s installed %s", canary, version)
	if err := c.observe(ctx, canary, kind, version, baseline); err != nil {
		return fail("bake", canary, err)
	}
	c.logf("  canary bake ok (%s)", bake)

	// Stage 3: fleet push.
	for _, r := range c.Replicas[1:] {
		url := normalizeURL(r)
		if err := c.push(ctx, url, kind, version, data); err != nil {
			return fail("fleet", url, err)
		}
		res.Updated = append(res.Updated, url)
		c.logf("  replica %s installed %s", url, version)
	}

	// Stage 4: convergence — every replica must report the new version
	// healthy before the rollout is declared done.
	if bad, err := c.converge(ctx, res.Updated, kind, version); err != nil {
		return fail("convergence", bad, err)
	}
	c.logf("rollout %s complete: %d replica(s) on %s", kind, len(res.Updated), version)
	return res, nil
}

// ---- stage primitives ----

// push POSTs the sealed bytes to one replica and checks the installed
// version echoes back.
func (c *Controller) push(ctx context.Context, url, kind, version string, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/admin/snapshot/"+kind, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pr struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decoding push response: %w", err)
	}
	if pr.Version != version {
		return fmt.Errorf("replica installed version %s, want %s", pr.Version, version)
	}
	return nil
}

// pull GETs a replica's installed raw snapshot bytes for the kind.
func (c *Controller) pull(ctx context.Context, url, kind string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/admin/snapshot/"+kind, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica answered %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// replicaVitals is the per-replica signal the controller watches: health
// plus the reload failure counters from /debug/vars.
type replicaVitals struct {
	health         chassis.Health
	reloadRejected uint64
	reloadErrors   uint64
}

func (c *Controller) vitals(ctx context.Context, url string) (*replicaVitals, error) {
	var v replicaVitals
	if err := c.getJSON(ctx, url+"/healthz", &v.health); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	var vars struct {
		Serve struct {
			ReloadRejected uint64 `json:"reload_rejected"`
			ReloadErrors   uint64 `json:"reload_errors"`
		} `json:"adwars_serve"`
	}
	if err := c.getJSON(ctx, url+"/debug/vars", &vars); err != nil {
		return nil, fmt.Errorf("debug/vars: %w", err)
	}
	v.reloadRejected = vars.Serve.ReloadRejected
	v.reloadErrors = vars.Serve.ReloadErrors
	return &v, nil
}

// check verifies one replica is healthy and actually serving the target
// version of the kind, and returns the vitals it read.
func (c *Controller) check(ctx context.Context, url, kind, version string) (*replicaVitals, error) {
	v, err := c.vitals(ctx, url)
	if err != nil {
		return nil, err
	}
	if v.health.Status != "ok" {
		return nil, fmt.Errorf("health status %q", v.health.Status)
	}
	got := v.health.ListsVersion
	if kind == "model" {
		got = v.health.ModelVersion
	}
	if got != version {
		return nil, fmt.Errorf("serving version %s, want %s", got, version)
	}
	if lr := v.health.LastReload; lr != nil && !lr.OK {
		return nil, fmt.Errorf("last reload failed (%s): %s", lr.Source, lr.Error)
	}
	return v, nil
}

// observe watches the canary for the bake window, polling health, served
// version, and the reload failure counters against the pre-push baseline.
// Any regression — unreachable, unhealthy, wrong version,
// reload_rejected/reload_errors ticking — fails the bake.
func (c *Controller) observe(ctx context.Context, url, kind, version string, baseline *replicaVitals) error {
	deadline := time.Now().Add(bake)
	for {
		v, err := c.check(ctx, url, kind, version)
		if err != nil {
			return err
		}
		if v.reloadRejected > baseline.reloadRejected {
			return fmt.Errorf("reload_rejected ticked %d -> %d during bake", baseline.reloadRejected, v.reloadRejected)
		}
		if v.reloadErrors > baseline.reloadErrors {
			return fmt.Errorf("reload_errors ticked %d -> %d during bake", baseline.reloadErrors, v.reloadErrors)
		}
		if time.Now().After(deadline) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// converge polls until every replica reports the target version healthy,
// bounded by the watch window.
func (c *Controller) converge(ctx context.Context, urls []string, kind, version string) (string, error) {
	deadline := time.Now().Add(watch)
	for {
		badURL, lastErr := "", error(nil)
		for _, url := range urls {
			if _, err := c.check(ctx, url, kind, version); err != nil {
				badURL, lastErr = url, err
				break
			}
		}
		if lastErr == nil {
			return "", nil
		}
		if time.Now().After(deadline) {
			return badURL, lastErr
		}
		select {
		case <-ctx.Done():
			return badURL, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// rollback restores captured last-good bytes on every replica that
// installed the failed version. Errors are logged, not fatal: rollback is
// best-effort damage control and must visit every replica regardless.
func (c *Controller) rollback(ctx context.Context, kind string, updated []string, lastGood map[string][]byte) {
	for _, url := range updated {
		raw, ok := lastGood[url]
		if !ok {
			c.logf("  rollback %s: no last-good bytes captured, leaving as-is", url)
			continue
		}
		version, err := artifact.Version(raw)
		if err != nil {
			c.logf("  rollback %s: captured last-good is corrupt: %v", url, err)
			continue
		}
		if err := c.push(ctx, url, kind, version, raw); err != nil {
			c.logf("  rollback %s: push failed: %v", url, err)
			continue
		}
		c.logf("  rollback %s restored %s", url, version)
	}
}

func (c *Controller) getJSON(ctx context.Context, url string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// /healthz deliberately answers 503 with a full body when degraded;
	// decode whatever came back and let the caller judge.
	return json.NewDecoder(resp.Body).Decode(v)
}
