package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing/iotest"
	"time"
)

// faults is what a front injects around a replica's Handler(), fixed per
// data-plane request by its count: no seed, no rates. Of every `every`
// requests the first is cut off (http.ErrAbortHandler closes only its
// connection), the second's body fails after three bytes, as a client's
// that died mid-send, and the third's body panics when the replica reads
// it, inside its recovery boundary. Every slowEvery-th request answered
// 2xx sleeps slow in its reply's first Write: the replica writes its reply
// before it releases the worker slot, so the sleep holds the slot, and a
// shed 429 does not sleep.
type faults struct {
	every     int64
	slowEvery int64
	slow      time.Duration
}

func (f faults) wrap(next http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		i := n.Add(1)
		if f.every > 0 {
			switch i % f.every {
			case 1:
				panic(http.ErrAbortHandler)
			case 2:
				r.Body = io.NopCloser(io.MultiReader(io.LimitReader(r.Body, 3), iotest.ErrReader(io.ErrUnexpectedEOF)))
			case 3:
				r.Body = panicBody{r.Body}
			}
		}
		if f.slowEvery > 0 && i%f.slowEvery == 0 {
			w = &slowWriter{ResponseWriter: w, slow: f.slow}
		}
		next.ServeHTTP(w, r)
	})
}

type panicBody struct{ io.ReadCloser }

func (panicBody) Read([]byte) (int, error) { panic("injected panic") }

type slowWriter struct {
	http.ResponseWriter
	slow   time.Duration
	status int
	slept  bool
}

func (w *slowWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if !w.slept && (w.status == 0 || w.status/100 == 2) {
		w.slept = true
		time.Sleep(w.slow)
	}
	return w.ResponseWriter.Write(p)
}
