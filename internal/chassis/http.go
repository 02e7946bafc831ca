package chassis

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// ReplicaHeader is the header a replica stamps on its replies: the replica
// that answered.
const ReplicaHeader = "X-Adwars-Replica"

// Health is a replica's /healthz and /readyz response body: liveness,
// readiness, per-snapshot versions, and the last reload outcome — everything
// the gateway's health poller and the control plane's rollout watcher need
// in one fetch. With ReloadOutcome it is the replica health contract: serve
// writes it, fleet reads it, and neither imports the other for it.
type Health struct {
	Status       string         `json:"status"`
	Replica      string         `json:"replica,omitempty"`
	Ready        bool           `json:"ready"`
	Draining     bool           `json:"draining,omitempty"`
	Model        bool           `json:"model"`
	Lists        bool           `json:"lists"`
	ModelVersion string         `json:"model_version,omitempty"`
	ListsVersion string         `json:"lists_version,omitempty"`
	LastReload   *ReloadOutcome `json:"last_reload,omitempty"`
}

// ReloadOutcome records what happened to the most recent snapshot
// (re)load attempt, exposed on /healthz so the control plane can see not
// just counters but the shape of the last failure.
type ReloadOutcome struct {
	OK bool `json:"ok"`
	// Rejected means the snapshot content was refused (integrity or
	// format failure) while the previous snapshots kept serving.
	Rejected bool   `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`
	// Source is where the snapshot came from: "disk" (startup, SIGHUP,
	// /admin/reload) or "push" (control-plane POST /admin/snapshot/*).
	Source string `json:"source"`
}

// jsonBuf is a pooled response-encoding pair: the encoder is bound to the
// buffer once, so a steady-state response encode allocates nothing (the
// buffer's capacity and the encoder's internal machinery are both reused).
// The output is byte-identical to json.NewEncoder(w).Encode(v) — including
// the trailing newline serve's golden files pin.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// jsonContentType is the Content-Type of every reply, as the header map
// holds it: assigning the shared slice costs nothing, where Header.Set
// allocates a slice a call. Nothing may mutate it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// WriteJSON sends v as a JSON reply.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		jb.buf.Reset() // what does not encode (a NaN score) sends its status and no body
	}
	WriteBody(w, status, jb.buf.Bytes())
	jsonBufPool.Put(jb)
}

// WriteBody sends an encoded JSON body.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// errorEnvelope is the structured body every non-2xx reply of either server
// carries, so a client parses one shape whichever layer answered.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteError sends the error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	var e errorEnvelope
	e.Error.Code, e.Error.Message = code, fmt.Sprintf(format, args...)
	WriteJSON(w, status, e)
}

// RequireMethod enforces an endpoint's verbs (true = proceed): anything else
// is a 405 naming them.
func RequireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	if slices.Contains(methods, r.Method) {
		return true
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		"%s requires %s", r.URL.Path, strings.Join(methods, " or "))
	return false
}

// Var is one tree of /debug/vars: its key, and what JSON renders it from.
type Var struct {
	Key  string
	Tree any
}

// WriteVars answers /debug/vars in expvar's shape: the process-global registry
// (cmdline, memstats), then the server's own trees — handed in, not
// registered, because a process may hold many servers (the tests do).
func WriteVars(w http.ResponseWriter, r *http.Request, own ...Var) {
	if !RequireMethod(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	var b bytes.Buffer
	b.WriteString("{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(&b, "%q: %s,\n", kv.Key, kv.Value)
	})
	for i, v := range own {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "%q: %s", v.Key, JSON(v.Tree))
	}
	b.WriteString("\n}\n")
	WriteBody(w, http.StatusOK, b.Bytes())
}

// maxBodyHint bounds how much is allocated on the word of a Content-Length.
const maxBodyHint = 1 << 20

var errTooLarge = errors.New("body too large")

// ReadAll appends r to dst until EOF, giving up once more than max bytes have
// come. hint is the expected length (-1 when unknown): it sizes the first
// read but is not trusted beyond maxBodyHint. Into a caller's reused buffer a
// steady-state read allocates nothing — no MaxBytesReader, no fresh
// io.ReadAll slice: the limit check reads past the cap, not through a wrapper.
func ReadAll(dst []byte, r io.Reader, hint, max int64) ([]byte, error) {
	// One spare byte, so the read that finds EOF needs no growth.
	dst = slices.Grow(dst, int(min(max, maxBodyHint, hint)+1))
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		switch {
		case int64(len(dst)) > max:
			return dst, errTooLarge
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

// ReadBody reads a request body of at most max bytes into dst's storage and
// answers the failure modes itself (ok = proceed): 413 for a longer body,
// 400 for one that fails mid-read.
func ReadBody(w http.ResponseWriter, r *http.Request, dst []byte, max int64) (body []byte, ok bool) {
	body, err := ReadAll(dst[:0], r.Body, r.ContentLength, max)
	switch {
	case err == errTooLarge:
		WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", max)
	case err != nil:
		WriteError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
	}
	return body, err == nil
}
