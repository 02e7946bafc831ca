package serve

import (
	"net/http"
	"strings"

	"adwars/internal/artifact"
	"adwars/internal/chassis"
)

// ---- admin ----

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !chassis.RequireMethod(w, r, http.MethodPost) {
		return
	}
	if s.cfg.ModelPath == "" && s.cfg.ListsPath == "" {
		chassis.WriteError(w, http.StatusBadRequest, "snapshot", "no snapshot paths configured")
		return
	}
	if err := s.ReloadSnapshots(); err != nil {
		// The old snapshots are still installed; the operator gets a
		// structured 4xx, not a broken server.
		chassis.WriteError(w, http.StatusBadRequest, "snapshot", "reload failed: %v", err)
		return
	}
	chassis.WriteJSON(w, http.StatusOK, reloadResponse{Reloaded: true, Snapshot: s.snapshotInfo()})
}

// health assembles the shared health/readiness report.
func (s *Server) health() chassis.Health {
	h := chassis.Health{
		Status:   "ok",
		Replica:  s.cfg.ReplicaID,
		Draining: s.draining.Load(),
	}
	if ms := s.model.Load(); ms != nil {
		h.Model = true
		h.ModelVersion = ms.version
	}
	if ls := s.lists.Load(); ls != nil {
		h.Lists = true
		h.ListsVersion = ls.version
	}
	h.LastReload = s.lastReload.Load()
	h.Ready = (h.Model || h.Lists) && !h.Draining
	switch {
	case !h.Model && !h.Lists:
		h.Status = "no snapshots"
	case h.Draining:
		h.Status = "draining"
	}
	return h
}

// handleHealth answers a probe with the health report: 200 when ok holds of
// it. /healthz is liveness — ok as long as the process can answer and has
// any snapshot, even while draining; /readyz is routability — not ok once
// drain is announced (or before any snapshot is loaded), so gateways stop
// sending traffic here while the data plane finishes what it already has.
func (s *Server) handleHealth(ok func(chassis.Health) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !chassis.RequireMethod(w, r, http.MethodGet, http.MethodHead) {
			return
		}
		h := s.health()
		status := http.StatusOK
		if !ok(h) {
			status = http.StatusServiceUnavailable
		}
		chassis.WriteJSON(w, status, h)
	}
}

// pushResponse answers a successful control-plane snapshot push.
type pushResponse struct {
	Installed bool   `json:"installed"`
	Kind      string `json:"kind"`
	Version   string `json:"version"`
}

// handleSnapshot is the control-plane snapshot exchange, keyed by
// /admin/snapshot/{lists,model}:
//
//   - POST installs a pushed artifact: the body is the sealed wire format
//     (the same CRC64 framing snapshots carry on disk). It is verified,
//     parsed, prepared for serving, persisted atomically to the configured
//     path, and stored — in that order, so a replica restart always finds
//     what it was last serving and the file on disk is always one this
//     replica can serve. A damaged, unsealed or unservable push is refused
//     with 422, leaves disk and memory as they were, and is counted
//     exactly like a failed disk reload (reload_errors, and reload_rejected
//     when it was the bytes that were refused).
//   - GET returns the raw sealed bytes of the installed snapshot, which is
//     how the control plane captures last-good before a rollout so it can
//     roll back without any other storage.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	kind := strings.TrimPrefix(r.URL.Path, "/admin/snapshot/")
	if kind != "lists" && kind != "model" {
		chassis.WriteError(w, http.StatusNotFound, "not_found", "unknown snapshot kind %q", kind)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleSnapshotGet(w, kind)
	case http.MethodPost:
		s.handleSnapshotPush(w, r, kind)
	default:
		chassis.RequireMethod(w, r, http.MethodGet, http.MethodPost)
	}
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, kind string) {
	var raw []byte
	var version string
	switch kind {
	case "lists":
		if ls := s.lists.Load(); ls != nil {
			raw, version = ls.raw, ls.version
		}
	case "model":
		if ms := s.model.Load(); ms != nil {
			raw, version = ms.raw, ms.version
		}
	}
	if len(raw) == 0 {
		chassis.WriteError(w, http.StatusNotFound, "no_snapshot",
			"no artifact-backed %s snapshot installed", kind)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Adwars-Snapshot-Version", version)
	w.Write(raw)
}

func (s *Server) handleSnapshotPush(w http.ResponseWriter, r *http.Request, kind string) {
	path := s.cfg.ListsPath
	if kind == "model" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		chassis.WriteError(w, http.StatusBadRequest, "snapshot",
			"no %s snapshot path configured on this replica", kind)
		return
	}
	data, ok := chassis.ReadBody(w, r, nil, maxSnapshot)
	if !ok {
		return
	}
	// Parse and prepare before persisting, so an artifact this replica
	// could not serve — unsealed, damaged, schema-broken, or well-formed and
	// empty — never replaces the last-good file; persist before storing, so
	// disk and memory can only disagree in the direction of "disk newer,
	// reload pending". The wire format is the artifact framing itself, and
	// the parsers refuse what is not sealed.
	var version string
	var store func()
	var err error
	if kind == "lists" {
		var ls *listsState
		if ls, err = s.parseLists(data); err == nil {
			version, store = ls.version, func() { s.lists.Store(ls) }
		}
	} else {
		var ms *modelState
		if ms, err = parseModel(data); err == nil {
			version, store = ms.version, func() { s.model.Store(ms) }
		}
	}
	if err != nil {
		s.reloadFailed("push", err)
		chassis.WriteError(w, http.StatusUnprocessableEntity, "corrupt_artifact",
			"pushed %s snapshot refused: %v", kind, err)
		return
	}
	if err := artifact.WriteFileAtomic(path, data, 0o644); err != nil {
		s.reloadFailed("push", err)
		chassis.WriteError(w, http.StatusInternalServerError, "persist_failed",
			"persisting pushed snapshot: %v", err)
		return
	}
	store()
	s.met.Reloads.Add(1)
	s.met.Pushes.Add(1)
	s.lastReload.Store(&chassis.ReloadOutcome{OK: true, Source: "push"})
	chassis.WriteJSON(w, http.StatusOK, pushResponse{Installed: true, Kind: kind, Version: version})
}

// ---- analytics ----

// handleAnalytics snapshots the decision analytics pipeline: producer
// counters (recorded / dropped / ring occupancy), cumulative per-verdict
// totals (which survive bucket eviction — the reconciliation anchor),
// aggregator occupancy against its bounds, and the in-memory bucket rows.
// adwars-report -live consumes it directly; adwars-loadgen
// -check analytics reconciles its totals against the client-side ledger.
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	if !chassis.RequireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.anl.Snapshot()
	chassis.WriteJSON(w, http.StatusOK, &snap)
}
