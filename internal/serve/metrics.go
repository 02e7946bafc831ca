package serve

import (
	"encoding/json"
	"sync/atomic"

	"adwars/internal/chassis"
)

// endpointStats aggregates one endpoint's counters.
type endpointStats struct {
	Requests   chassis.Counter   `json:"requests"`    // requests that produced a response (any status)
	Errors     chassis.Counter   `json:"errors"`      // 4xx responses other than sheds
	Shed       chassis.Counter   `json:"shed"`        // 429s from admission control
	BatchItems chassis.Counter   `json:"batch_items"` // items carried by batch requests
	Latency    chassis.Histogram `json:"latency"`
}

// MarshalJSON leaves batch_items out while it is zero (an endpoint that has
// carried no batch says nothing about batches): the field an embedding
// struct declares under the same key wins, and this one is empty.
func (e *endpointStats) MarshalJSON() ([]byte, error) {
	type fields endpointStats // the fields without this method
	if e.BatchItems.Load() > 0 {
		return json.Marshal((*fields)(e))
	}
	return json.Marshal(struct {
		*fields
		BatchItems *chassis.Counter `json:"batch_items,omitempty"`
	}{fields: (*fields)(e)})
}

// endpoint keys, fixed at construction so handlers never allocate or lock
// to find their stats.
const (
	epMatch         = "match"
	epMatchBatch    = "match_batch"
	epClassify      = "classify"
	epClassifyBatch = "classify_batch"
)

// metrics is the server's full counter tree, exported as one JSON object
// under "adwars_serve" in /debug/vars: the tagged fields as they stand,
// after the three values MarshalJSON reads off the server.
type metrics struct {
	endpoints  map[string]*endpointStats
	queueDepth *atomic.Int64 // admission queue depth (shared gauge)
	// model is the server's installed model state, read at marshal time to
	// describe whatever model is serving.
	model *atomic.Pointer[modelState]

	Reloads      chassis.Counter `json:"reloads"`
	ReloadErrors chassis.Counter `json:"reload_errors"`
	// ReloadRejected counts reloads refused because a snapshot file failed
	// its integrity check (subset of ReloadErrors): the last-good snapshots
	// kept serving.
	ReloadRejected chassis.Counter `json:"reload_rejected"`
	// Pushes counts snapshots installed via control-plane push
	// (/admin/snapshot POST), a subset of Reloads.
	Pushes chassis.Counter `json:"pushes"`
	// PanicsRecovered counts panics converted into structured 500s by the
	// recovery boundary instead of killing the process.
	PanicsRecovered chassis.Counter `json:"panics_recovered"`
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

func (m *metrics) MarshalJSON() ([]byte, error) {
	type counters metrics // the tagged fields without this method
	out := struct {
		Endpoints  map[string]*endpointStats `json:"endpoints"`
		Model      *modelVars                `json:"model,omitempty"`
		QueueDepth int64                     `json:"queue_depth"`
		*counters
	}{Endpoints: m.endpoints, QueueDepth: m.queueDepth.Load(), counters: (*counters)(m)}
	if ms := m.model.Load(); ms != nil {
		out.Model = &modelVars{
			Rounds:          ms.snap.Model.Rounds(),
			SupportVectors:  ms.snap.Model.NumSupportVectors(),
			DistinctVectors: ms.snap.Model.NumDistinctVectors(),
		}
	}
	return json.Marshal(out)
}

// String renders the metrics tree as JSON, satisfying expvar.Var so the
// whole tree can be published in the process-global expvar registry.
func (m *metrics) String() string { return chassis.JSON(m) }
