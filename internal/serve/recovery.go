package serve

import (
	"errors"
	"net/http"
	"sync"

	"adwars/internal/chassis"
)

// withRecovery is the outermost request boundary: a panic anywhere in
// per-request work (handler body, parser, matcher, a request body's
// reader) is converted into a structured 500 envelope and a
// panics_recovered tick instead of killing the process. net/http would
// already confine the panic to the one connection, but without this
// boundary the client sees a bare connection reset and the operator sees
// nothing; with it the failure is a counted, typed response.
//
// http.ErrAbortHandler is re-panicked untouched: it is the sanctioned
// "abandon this connection silently" signal, and both net/http and
// internal/wire suppress it without logging.
// twPool recycles tracking writers: the wrapper lives only for the span
// of one request, so pooling it keeps the recovery boundary off the
// per-request allocation budget. A writer that re-panics (ErrAbortHandler)
// is deliberately not returned — its connection state is unknown.
var twPool = sync.Pool{New: func() any { return &trackingWriter{} }}

func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := twPool.Get().(*trackingWriter)
		tw.ResponseWriter = w
		tw.wrote = false
		defer func() {
			v := recover()
			if v != nil {
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				s.met.PanicsRecovered.Add(1)
				if !tw.wrote {
					chassis.WriteError(tw, http.StatusInternalServerError, "internal_panic",
						"panic recovered while handling %s: %v", r.URL.Path, v)
				}
				// If the response already started, the envelope cannot be
				// sent; the partial response is all the client gets, but the
				// process and every other in-flight request survive.
			}
			tw.ResponseWriter = nil
			twPool.Put(tw)
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether the response has started, so the
// recovery boundary knows if it can still write an error envelope.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}
