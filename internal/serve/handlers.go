package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/chassis"
	"adwars/internal/features"
)

// The data plane: wire types, request plumbing (body reader, admission,
// routes) and the four /v1 handlers. The control endpoints are in admin.go,
// the usage dump and /debug/vars in vars.go.

// ---- wire types ----

// MatchQuery is one /v1/match request: should this URL be blocked?
type MatchQuery struct {
	URL        string `json:"url"`
	Type       string `json:"type,omitempty"`
	PageDomain string `json:"page_domain,omitempty"`
}

// ListMatch is one list's verdict for a query.
type ListMatch struct {
	List         string   `json:"list"`
	Decision     string   `json:"decision"`
	Rule         string   `json:"rule,omitempty"`
	MatchedRules []string `json:"matched_rules,omitempty"`
}

// MatchResult is the verdict across all served lists. Blocked follows
// merged-list semantics: an exception anywhere overrides a block anywhere,
// exactly as if the lists were concatenated into one.
type MatchResult struct {
	Blocked  bool        `json:"blocked"`
	Decision string      `json:"decision"`
	Lists    []ListMatch `json:"lists"`
}

// ClassifyResult is the anti-adblock verdict for one script.
type ClassifyResult struct {
	AntiAdblock bool    `json:"anti_adblock"`
	Score       float64 `json:"score"`
	Decision    float64 `json:"decision"`
	Features    int     `json:"features"`
	Error       string  `json:"error,omitempty"`
}

// ModelInfo describes the installed model snapshot. Version is the
// artifact payload CRC the snapshot was loaded from, omitted when empty.
type ModelInfo struct {
	FeatureSet string `json:"feature_set"`
	Vocab      int    `json:"vocab"`
	Rounds     int    `json:"rounds"`
	Version    string `json:"version,omitempty"`
}

// ListsInfo describes the installed lists snapshot.
type ListsInfo struct {
	Label   string `json:"label,omitempty"`
	Lists   int    `json:"lists"`
	Rules   int    `json:"rules"`
	Version string `json:"version,omitempty"`
}

// SnapshotInfo identifies the snapshots a response was served from.
type SnapshotInfo struct {
	Model *ModelInfo `json:"model,omitempty"`
	Lists *ListsInfo `json:"lists,omitempty"`
}

type matchResponse struct {
	MatchResult
	Snapshot SnapshotInfo `json:"snapshot"`
}

type matchBatchRequest struct {
	Requests []MatchQuery `json:"requests"`
}

type matchBatchResponse struct {
	Count    int           `json:"count"`
	Results  []MatchResult `json:"results"`
	Snapshot SnapshotInfo  `json:"snapshot"`
}

type classifyResponse struct {
	ClassifyResult
	Snapshot SnapshotInfo `json:"snapshot"`
}

type classifyBatchRequest struct {
	Scripts []string `json:"scripts"`
}

type classifyBatchResponse struct {
	Count    int              `json:"count"`
	Results  []ClassifyResult `json:"results"`
	Snapshot SnapshotInfo     `json:"snapshot"`
}

type reloadResponse struct {
	Reloaded bool         `json:"reloaded"`
	Snapshot SnapshotInfo `json:"snapshot"`
}

// ---- plumbing ----

// readPost is how the four /v1 handlers begin: POST only, the snapshot they
// answer from loaded, the bounded body read into a pooled scratch the caller
// puts back. nil means refused, and answered; a refused method or body is
// booked against ep's errors, as clientError books the handlers' own.
func (s *Server) readPost(w http.ResponseWriter, r *http.Request, ep, kind string, loaded bool) *matchScratch {
	if !chassis.RequireMethod(w, r, http.MethodPost) {
		s.met.endpoints[ep].Errors.Add(1)
		return nil
	}
	if !loaded {
		chassis.WriteError(w, http.StatusServiceUnavailable, "no_snapshot", "no %s snapshot loaded", kind)
		return nil
	}
	sc, ok := getMatchScratch(), false
	if sc.body, ok = chassis.ReadBody(w, r, sc.body, maxBody); !ok {
		s.met.endpoints[ep].Errors.Add(1)
		matchScratchPool.Put(sc)
		return nil
	}
	return sc
}

// clientError answers a /v1 request the client got wrong (any 4xx but a
// 429 shed, which beginAdmitted books) and counts it in ep's errors.
func (s *Server) clientError(ep string, w http.ResponseWriter, status int, code, format string, args ...any) {
	s.met.endpoints[ep].Errors.Add(1)
	chassis.WriteError(w, status, code, format, args...)
}

// snapshotInfo reports the currently installed snapshots. The descriptors
// are precomputed at install time and shared by pointer: assembling a
// response envelope costs two atomic loads, no allocation.
func (s *Server) snapshotInfo() SnapshotInfo {
	var info SnapshotInfo
	if ms := s.model.Load(); ms != nil {
		info.Model = ms.info
	}
	if ls := s.lists.Load(); ls != nil {
		info.Lists = ls.info
	}
	return info
}

// retryAfterVals holds the Retry-After values a shed draws from, so
// stamping a 429 is a map assignment of a shared slice — no per-request
// allocation. Handlers must never mutate these.
var retryAfterVals = [3][]string{{"1"}, {"2"}, {"3"}}

// beginAdmitted admits one request: acquire a worker-pool ticket and hand
// back the latency clock. On shed it books the shed against the endpoint's
// stats, writes the 429 itself with a Retry-After of 1, 2 or 3 seconds
// drawn at random, so that clients shed together desynchronize instead of
// re-arriving as one thundering herd, and returns ok=false. Every true
// return must be paired with endAdmitted: one worker-pool ticket per
// request, latency observed on every outcome, and no closure, so admission
// adds zero allocations.
func (s *Server) beginAdmitted(ep string, w http.ResponseWriter, r *http.Request) (start time.Time, ok bool) {
	start = time.Now()
	if _, err := s.adm.acquire(r.Context()); err != nil {
		stats := s.met.endpoints[ep]
		stats.Shed.Add(1)
		stats.Requests.Add(1)
		stats.Latency.Observe(time.Since(start))
		w.Header()["Retry-After"] = retryAfterVals[rand.IntN(len(retryAfterVals))]
		chassis.WriteError(w, http.StatusTooManyRequests, "shed", "server overloaded, retry later")
		return start, false
	}
	return start, true
}

// endAdmitted releases the worker ticket and records the request.
func (s *Server) endAdmitted(ep string, start time.Time) {
	s.adm.release()
	stats := s.met.endpoints[ep]
	stats.Requests.Add(1)
	stats.Latency.Observe(time.Since(start))
}

// routes builds the handler tree once at construction.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/match", s.handleMatch)
	mux.HandleFunc("/v1/match/batch", s.handleMatchBatch)
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/classify/batch", s.handleClassifyBatch)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/admin/snapshot/", s.handleSnapshot)
	mux.HandleFunc("/admin/usage", s.handleUsage)
	mux.HandleFunc("/admin/analytics", s.handleAnalytics)
	mux.HandleFunc("/healthz", s.handleHealth(func(h chassis.Health) bool { return h.Model || h.Lists }))
	mux.HandleFunc("/readyz", s.handleHealth(func(h chassis.Health) bool { return h.Ready }))
	mux.HandleFunc("/debug/vars", s.handleDebugVars)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		chassis.WriteError(w, http.StatusNotFound, "not_found", "no such endpoint: %s", r.URL.Path)
	})
	return mux
}

// ---- match ----

// checkQuery validates one match query: what is wrong with it, "" if
// nothing.
func checkQuery(q *MatchQuery) string {
	if q.URL == "" {
		return `missing "url"`
	}
	if !abp.RequestType(q.Type).Valid() {
		return fmt.Sprintf("unknown request type %q", q.Type)
	}
	return ""
}

// matchScratch is the pooled per-request working set of the match hot
// path: the decoded query and the buffer its strings are unescaped into, the
// body read buffer, the per-list hit buffer, append-only arenas for the
// response's ListMatch and matched-rule slices, and the buffer the response
// is encoded into. Response slices carve sub-slices out of the arenas; a grown
// arena strands earlier carves on the old backing array, where their data
// stays intact, so the arenas are safe across a whole batch. The scratch
// may be returned to the pool only after the response is encoded.
type matchScratch struct {
	q       MatchQuery
	strs    []byte
	body    []byte
	hits    []abp.Hit
	lists   []ListMatch
	matched []string
	resp    matchResponse
	out     []byte
}

var matchScratchPool = sync.Pool{New: func() any {
	return &matchScratch{
		hits:    make([]abp.Hit, 0, 16),
		lists:   make([]ListMatch, 0, 8),
		matched: make([]string, 0, 32),
	}
}}

func getMatchScratch() *matchScratch {
	sc := matchScratchPool.Get().(*matchScratch)
	sc.hits = sc.hits[:0]
	sc.lists = sc.lists[:0]
	sc.matched = sc.matched[:0]
	return sc
}

// matchWinner identifies the merged-list winning rule for the analytics
// event: the verdict, the winning rule's raw text, and its within-list
// ordinal. A no-match verdict carries ordinal -1 and no rule.
type matchWinner struct {
	verdict analytics.Verdict
	rule    string
	ordinal int32
}

// matchOne answers one query against every list in the state with a
// single automaton probe per list: AppendHits collects every matching
// rule, DecideHits reduces them to the verdict, and the winning ordinal
// feeds the list's usage counters. Results alias sc's arenas. The second
// return identifies the merged winner — under merged-list semantics the
// first exception anywhere, else the first block anywhere — for the
// analytics event.
func matchOne(ls *listsState, q MatchQuery, sc *matchScratch) (MatchResult, matchWinner) {
	req := abp.Request{URL: q.URL, Type: abp.RequestType(q.Type), PageDomain: q.PageDomain}
	listsStart := len(sc.lists)
	anyBlocked, anyAllowed := false, false
	var blockRule, allowRule *abp.Rule
	var blockOrd, allowOrd int32 = -1, -1
	for _, l := range ls.snap.Lists {
		sc.hits = l.AppendHits(sc.hits[:0], req)
		dec, rule, ord := abp.DecideHits(sc.hits)
		l.RecordUsage(ord)
		lm := ListMatch{List: l.Name, Decision: dec.String()}
		if rule != nil {
			lm.Rule = rule.Raw
		}
		switch dec {
		case abp.Blocked:
			anyBlocked = true
			if blockRule == nil {
				blockRule, blockOrd = rule, int32(ord)
			}
		case abp.Allowed:
			anyAllowed = true
			if allowRule == nil {
				allowRule, allowOrd = rule, int32(ord)
			}
		}
		if len(sc.hits) > 0 {
			start := len(sc.matched)
			for _, h := range sc.hits {
				sc.matched = append(sc.matched, h.Rule.Raw)
			}
			lm.MatchedRules = sc.matched[start:len(sc.matched):len(sc.matched)]
		}
		sc.lists = append(sc.lists, lm)
	}
	res := MatchResult{Lists: sc.lists[listsStart:len(sc.lists):len(sc.lists)]}
	win := matchWinner{verdict: analytics.VerdictNoMatch, ordinal: -1}
	switch {
	case anyAllowed:
		res.Decision = abp.Allowed.String()
		win = matchWinner{verdict: analytics.VerdictAllowed, rule: allowRule.Raw, ordinal: allowOrd}
	case anyBlocked:
		res.Decision = abp.Blocked.String()
		res.Blocked = true
		win = matchWinner{verdict: analytics.VerdictBlocked, rule: blockRule.Raw, ordinal: blockOrd}
	default:
		res.Decision = abp.NoMatch.String()
	}
	return res, win
}

// recordMatch logs one match verdict into the analytics pipeline. The
// event's strings alias the decoded query and the compiled list's rule
// text — memory that already exists — so recording costs two atomic adds
// and a ring-slot copy, nothing on the heap; the collector's consumer
// clones whatever it keeps. ts is the request's admission start.
func (s *Server) recordMatch(q *MatchQuery, win matchWinner, ts time.Time) {
	domain := q.PageDomain
	if domain == "" {
		domain = abp.HostOf(q.URL)
	}
	s.anl.Record(analytics.Event{
		UnixNano: ts.UnixNano(),
		Kind:     analytics.KindMatch,
		Verdict:  win.verdict,
		Ordinal:  win.ordinal,
		Domain:   domain,
		Rule:     win.rule,
	})
}

// recordClassify logs one classification verdict.
func (s *Server) recordClassify(anti bool, ts time.Time) {
	v := analytics.VerdictBenign
	if anti {
		v = analytics.VerdictAntiAdblock
	}
	s.anl.Record(analytics.Event{
		UnixNano: ts.UnixNano(),
		Kind:     analytics.KindClassify,
		Verdict:  v,
		Ordinal:  -1,
	})
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	ls := s.lists.Load()
	sc := s.readPost(w, r, epMatch, "lists", ls != nil)
	if sc == nil {
		return
	}
	defer matchScratchPool.Put(sc)
	if err := sc.decode(sc.body); err != nil {
		s.clientError(epMatch, w, http.StatusBadRequest, "bad_request", "malformed JSON body: %v", err)
		return
	}
	if msg := checkQuery(&sc.q); msg != "" {
		s.clientError(epMatch, w, http.StatusBadRequest, "bad_request", "%s", msg)
		return
	}
	start, ok := s.beginAdmitted(epMatch, w, r)
	if !ok {
		return
	}
	defer s.endAdmitted(epMatch, start)
	res, win := matchOne(ls, sc.q, sc)
	s.recordMatch(&sc.q, win, start)
	sc.resp = matchResponse{
		MatchResult: res,
		Snapshot:    s.snapshotInfo(),
	}
	sc.out = appendMatchResponse(sc.out[:0], &sc.resp)
	chassis.WriteBody(w, http.StatusOK, sc.out)
}

func (s *Server) handleMatchBatch(w http.ResponseWriter, r *http.Request) {
	// One scratch serves the whole batch: the body is read into it, and its
	// arenas grow monotonically, so every result's slices stay valid until
	// the encode below.
	ls := s.lists.Load()
	sc := s.readPost(w, r, epMatchBatch, "lists", ls != nil)
	if sc == nil {
		return
	}
	defer matchScratchPool.Put(sc)
	var batch matchBatchRequest
	if err := json.Unmarshal(sc.body, &batch); err != nil {
		s.clientError(epMatchBatch, w, http.StatusBadRequest, "bad_request", "malformed JSON body: %v", err)
		return
	}
	if len(batch.Requests) == 0 {
		s.clientError(epMatchBatch, w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	if len(batch.Requests) > maxBatch {
		s.clientError(epMatchBatch, w, http.StatusBadRequest, "batch_too_large",
			"%d requests exceed the %d-item batch limit", len(batch.Requests), maxBatch)
		return
	}
	for i := range batch.Requests {
		if msg := checkQuery(&batch.Requests[i]); msg != "" {
			s.clientError(epMatchBatch, w, http.StatusBadRequest, "bad_request", "request %d: %s", i, msg)
			return
		}
	}
	// A batch rides on a single worker-pool ticket, which is where its
	// amortization comes from.
	start, ok := s.beginAdmitted(epMatchBatch, w, r)
	if !ok {
		return
	}
	defer s.endAdmitted(epMatchBatch, start)
	s.met.endpoints[epMatchBatch].BatchItems.Add(uint64(len(batch.Requests)))
	out := matchBatchResponse{
		Count:    len(batch.Requests),
		Results:  make([]MatchResult, 0, len(batch.Requests)),
		Snapshot: s.snapshotInfo(),
	}
	for i := range batch.Requests {
		res, win := matchOne(ls, batch.Requests[i], sc)
		s.recordMatch(&batch.Requests[i], win, start)
		out.Results = append(out.Results, res)
	}
	chassis.WriteJSON(w, http.StatusOK, out)
}

// ---- classify ----

// score runs the ensemble on a projected sample. The score maps the
// ensemble's decision value onto [0,1] by normalizing against Σ|αₜ| (the
// largest reachable magnitude): 0.5 is the decision boundary, 1 means
// every round voted anti-adblock at full weight.
func (ms *modelState) score(sample features.Sample) ClassifyResult {
	decision := ms.snap.Model.Decision(sample)
	margin := 0.0
	if ms.alphaSum > 0 {
		margin = decision / ms.alphaSum
	}
	if margin > 1 {
		margin = 1
	} else if margin < -1 {
		margin = -1
	}
	return ClassifyResult{
		AntiAdblock: decision >= 0,
		Score:       (margin + 1) / 2,
		Decision:    decision,
		Features:    sample.Popcount(),
	}
}

// classifyOne runs the jsast→features→AdaBoost inference path for one
// script against the installed model state: parse and unpack, project the
// tree straight onto the model's vocabulary, score.
func classifyOne(ms *modelState, src string) (ClassifyResult, error) {
	sample, err := ms.vocab.ProjectSource(src, ms.set)
	if err != nil {
		return ClassifyResult{}, err
	}
	return ms.score(sample), nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	ms := s.model.Load()
	sc := s.readPost(w, r, epClassify, "model", ms != nil)
	if sc == nil {
		return
	}
	defer matchScratchPool.Put(sc)
	// The tokens and the tree alias the script, so it leaves the pooled
	// buffer as an immutable string.
	src := string(sc.body)
	if len(src) == 0 {
		s.clientError(epClassify, w, http.StatusBadRequest, "bad_request", "empty script body")
		return
	}
	start, ok := s.beginAdmitted(epClassify, w, r)
	if !ok {
		return
	}
	defer s.endAdmitted(epClassify, start)
	res, err := classifyOne(ms, src)
	if err != nil {
		s.clientError(epClassify, w, http.StatusUnprocessableEntity, "bad_script",
			"script does not parse: %v", err)
		return
	}
	s.recordClassify(res.AntiAdblock, start)
	resp := classifyResponse{ClassifyResult: res, Snapshot: s.snapshotInfo()}
	if sc.out, ok = appendClassifyResponse(sc.out[:0], &resp); !ok {
		sc.out = sc.out[:0] // what does not encode sends its status and no body, as WriteJSON does
	}
	chassis.WriteBody(w, http.StatusOK, sc.out)
}

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	ms := s.model.Load()
	sc := s.readPost(w, r, epClassifyBatch, "model", ms != nil)
	if sc == nil {
		return
	}
	defer matchScratchPool.Put(sc)
	// Unmarshal copies the scripts out of the pooled buffer.
	var batch classifyBatchRequest
	if err := json.Unmarshal(sc.body, &batch); err != nil {
		s.clientError(epClassifyBatch, w, http.StatusBadRequest, "bad_request", "malformed JSON body: %v", err)
		return
	}
	if len(batch.Scripts) == 0 {
		s.clientError(epClassifyBatch, w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	if len(batch.Scripts) > maxBatch {
		s.clientError(epClassifyBatch, w, http.StatusBadRequest, "batch_too_large",
			"%d scripts exceed the %d-item batch limit", len(batch.Scripts), maxBatch)
		return
	}
	start, ok := s.beginAdmitted(epClassifyBatch, w, r)
	if !ok {
		return
	}
	defer s.endAdmitted(epClassifyBatch, start)
	s.met.endpoints[epClassifyBatch].BatchItems.Add(uint64(len(batch.Scripts)))
	// The scripts run one after another in this goroutine, under the one
	// ticket admission granted. Per-script parse failures, and panics,
	// annotate their slot instead of failing the batch.
	out := classifyBatchResponse{
		Count:    len(batch.Scripts),
		Results:  make([]ClassifyResult, len(batch.Scripts)),
		Snapshot: s.snapshotInfo(),
	}
	for i, src := range batch.Scripts {
		var res ClassifyResult
		err := features.RunIsolated(func() (err error) {
			res, err = classifyOne(ms, src)
			return err
		})
		if err != nil {
			// A parse failure is not a verdict; it annotates the slot and
			// stays out of the analytics stream.
			out.Results[i] = ClassifyResult{Error: fmt.Sprintf("script does not parse: %v", err)}
			continue
		}
		out.Results[i] = res
		s.recordClassify(res.AntiAdblock, start)
	}
	chassis.WriteJSON(w, http.StatusOK, out)
}
