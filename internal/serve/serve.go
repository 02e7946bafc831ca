// Package serve is the online layer over the offline pipeline: an HTTP
// service answering filter-list match queries (/v1/match) from compiled
// list snapshots and anti-adblock classification queries (/v1/classify)
// from a trained model snapshot, with batch variants that amortize
// per-request overhead. Snapshots hot-reload atomically (SIGHUP or
// /admin/reload) with zero dropped requests, admission control sheds
// excess load as 429s, and per-endpoint metrics export through
// /debug/vars. Every server records its verdicts in the decision analytics
// pipeline (/admin/analytics); there is no configuration without it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/artifact"
	"adwars/internal/chassis"
	"adwars/internal/degrade"
	"adwars/internal/features"
	"adwars/internal/ml"
	"adwars/internal/wire"
)

// Config parameterizes a Server. The zero value serves with sane defaults
// but no snapshots; most callers set ModelPath/ListsPath.
type Config struct {
	// ModelPath is the model snapshot file (re-read on reload). Empty
	// means the model endpoints answer 503 until a snapshot is set.
	ModelPath string
	// ListsPath is the compiled-lists snapshot file (re-read on reload).
	ListsPath string
	// Workers bounds concurrently processed requests (0 = GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker slot (0 = 4×Workers).
	Queue int
	// QueueTimeout is the deadline a request may wait for a slot before
	// being shed with 429 (0 = 25ms).
	QueueTimeout time.Duration
	// MetricsOut, when non-nil, receives a final metrics snapshot on
	// graceful shutdown.
	MetricsOut io.Writer
	// ReplicaID, when set, identifies this replica in the fleet: every
	// response carries it in an X-Adwars-Replica header and /healthz
	// reports it, so gateways and load generators can attribute traffic.
	ReplicaID string
	// DrainAnnounce is how long Serve keeps accepting (and answering)
	// requests after flipping /readyz to not-ready at drain start, giving
	// health-polling gateways time to stop routing here before connection
	// teardown begins (0 = no announcement window).
	DrainAnnounce time.Duration
	// Analytics configures the decision analytics pipeline every server
	// runs: each /v1/match and /v1/classify verdict is logged into
	// lock-free rings that a background consumer aggregates and, with
	// SpillDir set, spills; /admin/analytics snapshots it live. Recording
	// never blocks the hot path and never allocates. Nil is the zero
	// analytics.Config: every decision recorded, no spill.
	Analytics *analytics.Config
	// Degrade is ignored: there is no overload governor, and the
	// admission queue's 429 is the overload policy.
	//
	// Deprecated: kept only because the benchmark still sets it.
	Degrade *degrade.Config
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) queue() int {
	if c.Queue > 0 {
		return c.Queue
	}
	return 4 * c.workers()
}

func (c *Config) queueTimeout() time.Duration {
	if c.QueueTimeout > 0 {
		return c.QueueTimeout
	}
	return 25 * time.Millisecond
}

const (
	// maxBody bounds a data-plane request body in bytes; larger bodies get
	// 413.
	maxBody = 1 << 20
	// maxBatch bounds the items of one batch request.
	maxBatch = 256
	// drainTimeout bounds graceful shutdown.
	drainTimeout = 5 * time.Second
)

// maxSnapshot bounds the body of a control-plane snapshot push in bytes.
// Snapshots are far larger than data-plane request bodies, so they get
// their own cap.
const maxSnapshot = 64 << 20

// modelState is a loaded model snapshot prepared for the hot path: the
// ensemble, the vocabulary projector, and the parsed feature set. It is
// immutable after construction; the server swaps whole states atomically.
type modelState struct {
	snap     *ml.ModelSnapshot
	vocab    *features.Vocab
	set      features.Set
	alphaSum float64
	// version is the artifact payload CRC of the bytes this state loaded
	// from; raw is those bytes, served back to the control plane for
	// rollback.
	version string
	raw     []byte
	// info is the response-embedded snapshot descriptor, precomputed once
	// at install so the hot path shares one immutable value instead of
	// rebuilding it per response.
	info *ModelInfo
}

// listsState is a loaded lists snapshot. Compiled lists are immutable and
// safe for concurrent matchers, so a state is shared freely across
// requests.
type listsState struct {
	snap  *abp.ListsSnapshot
	rules int
	// version and raw are as in modelState. raw is also the memory the
	// lists' automata read (abp.ParseListsSnapshot decodes in place), so it
	// is never written once the state is installed.
	version string
	raw     []byte
	// info is the precomputed response descriptor (see modelState.info).
	info *ListsInfo
}

// Server is the online serving engine. Create with New, then load
// snapshots (ReloadSnapshots, or a control-plane push) and
// expose Handler on any HTTP server — or use Serve, which runs it on the
// repository's own serving loop (internal/wire) and handles graceful drain.
type Server struct {
	cfg Config
	adm *admission
	met *metrics

	// anl is the decision analytics collector; anlErr latches a failure
	// to open the configured spill dir, so the embedder can refuse to
	// serve instead of running without the spill it asked for.
	anl    *analytics.Collector
	anlErr error

	model atomic.Pointer[modelState]
	lists atomic.Pointer[listsState]

	// draining flips /readyz to 503 at drain start so health-polling
	// gateways route away before connections start tearing down.
	draining   atomic.Bool
	lastReload atomic.Pointer[chassis.ReloadOutcome]

	mux http.Handler
}

// New builds a Server from cfg without loading any snapshots; call
// ReloadSnapshots before serving traffic. The analytics consumer runs from
// here on: Serve closes it during drain, and a caller that never calls
// Serve closes it with CloseAnalytics.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.workers(), cfg.queue(), cfg.queueTimeout()),
	}
	s.met = &metrics{
		endpoints:  map[string]*endpointStats{epMatch: {}, epMatchBatch: {}, epClassify: {}, epClassifyBatch: {}},
		queueDepth: &s.adm.queued,
		model:      &s.model,
	}
	var anlCfg analytics.Config
	if cfg.Analytics != nil {
		anlCfg = *cfg.Analytics
	}
	if s.anl, s.anlErr = analytics.NewCollector(anlCfg); s.anlErr != nil {
		// Latched for the embedder; the collector it gets meanwhile
		// records in memory only.
		s.anl, _ = analytics.NewCollector(analytics.Config{})
	}
	h := s.withRecovery(s.routes())
	if cfg.ReplicaID != "" {
		// Outermost so even recovered-panic envelopes carry the replica
		// attribution the gateway and loadgen key on.
		h = s.withReplicaHeader(h)
	}
	s.mux = h
	return s
}

// withReplicaHeader stamps every response with this replica's identity (one
// slice shared by every response, never mutated, like chassis's Content-Type).
func (s *Server) withReplicaHeader(next http.Handler) http.Handler {
	id := []string{s.cfg.ReplicaID}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()[chassis.ReplicaHeader] = id
		next.ServeHTTP(w, r)
	})
}

// Degrade returns a governor that never leaves full service.
//
// Deprecated: there is no governor; kept only because the benchmark reads
// its Snapshot.
func (s *Server) Degrade() *degrade.Governor { return &degrade.Governor{} }

// Metrics returns the server's metrics tree as an expvar-compatible Var
// (its String method renders JSON). Commands publish it in the global
// expvar registry; tests read it directly.
func (s *Server) Metrics() fmt.Stringer { return s.met }

// Analytics returns the decision analytics collector.
func (s *Server) Analytics() *analytics.Collector { return s.anl }

// AnalyticsError reports the spill dir New could not open, if any: the
// server then spills nothing. Embedders check it before serving.
func (s *Server) AnalyticsError() error { return s.anlErr }

// CloseAnalytics drains the analytics rings and flushes the final
// aggregator state to spill, stopping the consumer goroutine. Idempotent;
// Serve calls it during drain, embedders that drive the Handler directly
// call it themselves.
func (s *Server) CloseAnalytics() error { return s.anl.Close() }

// Installing a snapshot is two steps: a prepare* that does everything that
// can fail and returns the finished state, and an atomic Store that cannot.
// In-flight requests keep the state they already loaded; new requests see
// the new one — no request ever observes a half-installed snapshot.
// A caller with more than one thing to validate — both snapshots of a
// reload, a push that must also reach disk — finishes all of it before the
// first Store, so a refusal leaves disk and memory exactly as they were.

// prepareModel validates snap and builds its serving state; its version is
// snap.Version, and raw the artifact it was parsed from (nil when there is
// none).
func prepareModel(snap *ml.ModelSnapshot, raw []byte) (*modelState, error) {
	set, vocab, err := snap.Projection()
	if err != nil {
		return nil, fmt.Errorf("serve: model snapshot: %w", err)
	}
	ms := &modelState{
		snap:     snap,
		vocab:    vocab,
		set:      set,
		alphaSum: snap.Model.AlphaSum(),
		version:  snap.Version,
		raw:      raw,
	}
	ms.info = &ModelInfo{
		FeatureSet: ms.snap.FeatureSet,
		Vocab:      ms.vocab.Len(),
		Rounds:     ms.snap.Model.Rounds(),
		Version:    ms.version,
	}
	return ms, nil
}

// parseModel is the artifact form of prepareModel: the sealed bytes parsed,
// then prepared.
func parseModel(raw []byte) (*modelState, error) {
	snap, err := ml.ParseModelSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return prepareModel(snap, raw)
}

// prepareLists validates snap and builds its serving state; its version and
// raw are as in prepareModel.
func (s *Server) prepareLists(snap *abp.ListsSnapshot, raw []byte) (*listsState, error) {
	if len(snap.Lists) == 0 {
		return nil, fmt.Errorf("serve: lists snapshot has no lists")
	}
	// Attach the per-rule hit counters before the state becomes visible to
	// matchers (EnableUsage is idempotent but not concurrency-safe against
	// in-flight matches on the same list value). Recording is one sharded
	// atomic add on the match path, no lock and no allocation, and
	// /admin/usage dumps the per-rule hit distribution.
	for _, l := range snap.Lists {
		l.EnableUsage()
	}
	ls := &listsState{snap: snap, rules: snap.Rules(), version: snap.Version, raw: raw}
	ls.info = &ListsInfo{
		Label:   snap.Label,
		Lists:   len(snap.Lists),
		Rules:   ls.rules,
		Version: ls.version,
	}
	return ls, nil
}

// parseLists is the artifact form of prepareLists. The lists' automata
// alias raw from here on: the state keeps the one buffer, and nothing
// writes it after it is stored.
func (s *Server) parseLists(raw []byte) (*listsState, error) {
	snap, err := abp.ParseListsSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return s.prepareLists(snap, raw)
}

// ReloadSnapshots re-reads the configured snapshot paths and installs
// them. On any error — either file unreadable, damaged, or holding a
// snapshot this server cannot serve — the previous snapshots both stay
// installed untouched: everything is prepared before anything is stored, so
// a bad reload never degrades a serving process or leaves it on a model
// and lists from two different reloads. A snapshot rejected for failing its
// integrity check (torn write, bit rot, missing trailer) additionally
// ticks reload_rejected, so corruption is distinguishable from operational
// errors like a missing file. Each installed state remembers the artifact
// version (payload CRC64) it was loaded from; /healthz reports it and the
// control plane compares it during rollouts.
func (s *Server) ReloadSnapshots() error {
	var ms *modelState
	var ls *listsState
	if path := s.cfg.ModelPath; path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return s.reloadFailed("disk", err)
		}
		if ms, err = parseModel(raw); err != nil {
			return s.reloadFailed("disk", fmt.Errorf("%s: %w", path, err))
		}
	}
	if path := s.cfg.ListsPath; path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return s.reloadFailed("disk", err)
		}
		if ls, err = s.parseLists(raw); err != nil {
			return s.reloadFailed("disk", fmt.Errorf("%s: %w", path, err))
		}
	}
	if ms != nil {
		s.model.Store(ms)
	}
	if ls != nil {
		s.lists.Store(ls)
	}
	s.met.Reloads.Add(1)
	s.lastReload.Store(&chassis.ReloadOutcome{OK: true, Source: "disk"})
	return nil
}

// reloadFailed records a failed reload in the metrics tree and passes the
// error through. reload_rejected ticks when the file was there but its
// content was refused — integrity failure (torn write, bit rot, missing
// trailer) or an unparseable/foreign payload, which on a path that loaded
// fine before is the same event: a damaged artifact. Pure I/O errors
// (missing file, permissions) count only as reload_errors.
func (s *Server) reloadFailed(source string, err error) error {
	s.met.ReloadErrors.Add(1)
	rejected := errors.Is(err, artifact.ErrCorrupt) ||
		errors.Is(err, ml.ErrSnapshotFormat) || errors.Is(err, ml.ErrSnapshotVersion) ||
		errors.Is(err, abp.ErrSnapshotFormat) || errors.Is(err, abp.ErrSnapshotVersion)
	if rejected {
		s.met.ReloadRejected.Add(1)
	}
	s.lastReload.Store(&chassis.ReloadOutcome{Rejected: rejected, Error: err.Error(), Source: source})
	return err
}

// StartDrain flips readiness off: /readyz answers 503 from now on while
// the data plane keeps serving, so gateways that poll readiness stop
// routing new traffic here before connections tear down. Serve calls it
// at drain start; it is exported for fleet tests and embedders.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Handler returns the server's HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is cancelled, then announces
// drain (readiness flips to 503 and stays that way for DrainAnnounce so
// polling gateways route away first), drains in-flight requests (bounded
// by drainTimeout), and flushes a final metrics snapshot to MetricsOut.
// It returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	ws := &wire.Server{Handler: s.mux}
	err := ws.Run(ctx, ln, drainTimeout, func() {
		s.StartDrain()
		time.Sleep(s.cfg.DrainAnnounce)
	})
	// With no more requests in flight, the analytics rings hold the last
	// recorded decisions; flush them and the aggregator to spill before
	// the process report, so a drained run loses no telemetry.
	if aerr := s.CloseAnalytics(); err == nil {
		err = aerr
	}
	chassis.Flush(s.cfg.MetricsOut, s.met)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
