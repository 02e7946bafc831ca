package serve

import (
	"encoding/json"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// histogram is a lock-free log₂-bucketed latency histogram: bucket i counts
// observations with ceil(log₂(ns)) == i, covering 1ns through ~2.3 hours.
// Quantiles are read as the upper bound of the bucket where the cumulative
// count crosses the quantile — at most one power of two of error, which is
// plenty for p50/p99 serving dashboards.
type histogram struct {
	buckets [44]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
	maxNs   atomic.Uint64
}

func (h *histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	i := bits.Len64(ns)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Quantile returns the approximate q-quantile (0 < q ≤ 1) in nanoseconds.
func (h *histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= want {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper bound of bucket i: 2^i ns
		}
	}
	return h.maxNs.Load()
}

// windowQuantile returns the approximate q-quantile over only the
// observations recorded since the previous call with the same prev
// array, updating prev in place to the current bucket counts. The
// overload governor needs windowed pressure — the cumulative Quantile
// never forgets an overload, so a ladder keyed on it would never
// recover. An empty window returns 0 (calm), which is exactly right:
// no traffic is no pressure. Same bucket semantics as Quantile.
func (h *histogram) windowQuantile(prev *[44]uint64, q float64) uint64 {
	var deltas [44]uint64
	var total uint64
	for i := range h.buckets {
		cur := h.buckets[i].Load()
		deltas[i] = cur - prev[i]
		prev[i] = cur
		total += deltas[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i := range deltas {
		seen += deltas[i]
		if seen >= want {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper bound of bucket i: 2^i ns
		}
	}
	return 0
}

// latencySnapshot is the JSON shape of one histogram.
type latencySnapshot struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

func (h *histogram) snapshot() latencySnapshot {
	s := latencySnapshot{
		Count: h.count.Load(),
		P50Ns: h.Quantile(0.50),
		P90Ns: h.Quantile(0.90),
		P99Ns: h.Quantile(0.99),
		MaxNs: h.maxNs.Load(),
	}
	if s.Count > 0 {
		s.MeanNs = h.sumNs.Load() / s.Count
	}
	return s
}

// endpointStats aggregates one endpoint's counters.
type endpointStats struct {
	requests   atomic.Uint64 // requests that produced a response (any status)
	errors     atomic.Uint64 // 4xx responses other than sheds
	shed       atomic.Uint64 // 429s from admission control
	batchItems atomic.Uint64 // items carried by batch requests
	latency    histogram
}

type endpointSnapshot struct {
	Requests   uint64          `json:"requests"`
	Errors     uint64          `json:"errors"`
	Shed       uint64          `json:"shed"`
	BatchItems uint64          `json:"batch_items,omitempty"`
	Latency    latencySnapshot `json:"latency"`
}

// endpoint keys, fixed at construction so handlers never allocate or lock
// to find their stats.
const (
	epMatch         = "match"
	epMatchBatch    = "match_batch"
	epClassify      = "classify"
	epClassifyBatch = "classify_batch"
)

var endpointKeys = []string{epMatch, epMatchBatch, epClassify, epClassifyBatch}

// chaosStats counts the faults the chaos middleware injected, so a chaos
// run's client-side accounting can be reconciled against what the server
// actually did.
type chaosStats struct {
	latencyInjections atomic.Uint64
	closeInjections   atomic.Uint64
	truncateInjection atomic.Uint64
	panicInjections   atomic.Uint64
}

type chaosSnapshot struct {
	LatencyInjections  uint64 `json:"latency_injections"`
	CloseInjections    uint64 `json:"close_injections"`
	TruncateInjections uint64 `json:"truncate_injections"`
	PanicInjections    uint64 `json:"panic_injections"`
}

// metrics is the server's full counter tree, exported as one JSON object
// under "adwars_serve" in /debug/vars.
type metrics struct {
	endpoints  map[string]*endpointStats
	queueDepth *atomic.Int64 // admission queue depth (shared gauge)
	// model is the server's installed model state, read at snapshot time to
	// describe whatever model is serving.
	model        *atomic.Pointer[modelState]
	reloads      atomic.Uint64
	reloadErrors atomic.Uint64
	// reloadRejected counts reloads refused because a snapshot file failed
	// its integrity check (subset of reloadErrors): the last-good snapshots
	// kept serving.
	reloadRejected atomic.Uint64
	// pushes counts snapshots installed via control-plane push
	// (/admin/snapshot POST), a subset of reloads.
	pushes atomic.Uint64
	// panicsRecovered counts panics converted into structured 500s by the
	// recovery boundary instead of killing the process.
	panicsRecovered atomic.Uint64
	// deadlineRefused counts requests refused at admission because their
	// propagated X-Adwars-Deadline could not cover even the queue wait —
	// work the server declined rather than finish after the caller had
	// already hung up.
	deadlineRefused atomic.Uint64
	// degradeShed counts requests shed pre-admission by the overload
	// governor's ladder (L3 sheds classify, L4 also sheds match batches).
	degradeShed atomic.Uint64
	// chaos counters are exported only when fault injection is configured.
	chaos        chaosStats
	chaosEnabled bool
}

func newMetrics(queueDepth *atomic.Int64, model *atomic.Pointer[modelState]) *metrics {
	m := &metrics{
		endpoints:  make(map[string]*endpointStats, len(endpointKeys)),
		queueDepth: queueDepth,
		model:      model,
	}
	for _, k := range endpointKeys {
		m.endpoints[k] = &endpointStats{}
	}
	return m
}

// modelVars sizes the installed model: the ensemble's support vectors are
// scored through one kernel evaluation per distinct vector, so
// distinct_vectors / support_vectors is the share of the naive scoring
// work a classification still does.
type modelVars struct {
	Rounds          int `json:"rounds"`
	SupportVectors  int `json:"support_vectors"`
	DistinctVectors int `json:"distinct_vectors"`
}

type metricsSnapshot struct {
	Endpoints       map[string]endpointSnapshot `json:"endpoints"`
	Model           *modelVars                  `json:"model,omitempty"`
	QueueDepth      int64                       `json:"queue_depth"`
	Reloads         uint64                      `json:"reloads"`
	ReloadErrors    uint64                      `json:"reload_errors"`
	ReloadRejected  uint64                      `json:"reload_rejected"`
	Pushes          uint64                      `json:"pushes"`
	PanicsRecovered uint64                      `json:"panics_recovered"`
	DeadlineRefused uint64                      `json:"deadline_refused"`
	DegradeShed     uint64                      `json:"degrade_shed"`
	Chaos           *chaosSnapshot              `json:"chaos,omitempty"`
}

func (m *metrics) snapshot() metricsSnapshot {
	out := metricsSnapshot{
		Endpoints:       make(map[string]endpointSnapshot, len(m.endpoints)),
		Reloads:         m.reloads.Load(),
		ReloadErrors:    m.reloadErrors.Load(),
		ReloadRejected:  m.reloadRejected.Load(),
		Pushes:          m.pushes.Load(),
		PanicsRecovered: m.panicsRecovered.Load(),
		DeadlineRefused: m.deadlineRefused.Load(),
		DegradeShed:     m.degradeShed.Load(),
	}
	if m.chaosEnabled {
		out.Chaos = &chaosSnapshot{
			LatencyInjections:  m.chaos.latencyInjections.Load(),
			CloseInjections:    m.chaos.closeInjections.Load(),
			TruncateInjections: m.chaos.truncateInjection.Load(),
			PanicInjections:    m.chaos.panicInjections.Load(),
		}
	}
	if m.queueDepth != nil {
		out.QueueDepth = m.queueDepth.Load()
	}
	if ms := m.model.Load(); ms != nil {
		out.Model = &modelVars{
			Rounds:          ms.snap.Model.Rounds(),
			SupportVectors:  ms.snap.Model.NumSupportVectors(),
			DistinctVectors: ms.snap.Model.NumDistinctVectors(),
		}
	}
	for k, ep := range m.endpoints {
		out.Endpoints[k] = endpointSnapshot{
			Requests:   ep.requests.Load(),
			Errors:     ep.errors.Load(),
			Shed:       ep.shed.Load(),
			BatchItems: ep.batchItems.Load(),
			Latency:    ep.latency.snapshot(),
		}
	}
	return out
}

// String renders the metrics tree as JSON, satisfying expvar.Var so the
// whole tree can be published in the process-global expvar registry.
func (m *metrics) String() string {
	data, err := json.Marshal(m.snapshot())
	if err != nil {
		return "{}"
	}
	return string(data)
}

// flush writes a final indented metrics snapshot, used on graceful
// shutdown so the run's totals survive the process.
func (m *metrics) flush(w io.Writer) {
	if w == nil {
		return
	}
	data, err := json.MarshalIndent(m.snapshot(), "", "  ")
	if err != nil {
		return
	}
	data = append(data, '\n')
	w.Write(data)
}
