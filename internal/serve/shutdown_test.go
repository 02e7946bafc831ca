package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestGracefulShutdownDrainsInFlight proves the shutdown contract: after
// the serve context is cancelled, a request already in flight completes
// with 200 (not a reset connection), Serve returns nil, and the final
// metrics snapshot lands on MetricsOut.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	var metricsOut bytes.Buffer
	s := newTestServer(t, Config{
		Workers:    2,
		MetricsOut: &metricsOut,
	})
	// Hold each request in the handler long enough for the shutdown to
	// race in behind it.
	s.testDelay = 300 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := fmt.Sprintf("http://%s/v1/match", ln.Addr())
	reqDone := make(chan error, 1)
	var status int
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(`{"url":"http://ads.example.com/banner.js","type":"script"}`))
		if err != nil {
			reqDone <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		reqDone <- nil
	}()

	// Let the request get in flight, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	cancel()

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request killed by shutdown: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", status)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// New connections are refused after drain.
	if _, err := http.Post(url, "application/json", strings.NewReader(`{}`)); err == nil {
		t.Error("post-shutdown request unexpectedly succeeded")
	}
	// Final metrics flushed, and they saw the drained request.
	out := metricsOut.String()
	if !strings.Contains(out, `"endpoints"`) {
		t.Fatalf("no metrics flushed on shutdown: %q", out)
	}
	if !strings.Contains(out, `"requests": 1`) {
		t.Errorf("flushed metrics missed the drained request: %s", out)
	}
}

// TestServeListenerError surfaces listener failures instead of hanging.
func TestServeListenerError(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve on a closed listener must return promptly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Serve(ctx, ln); err == nil {
		t.Fatal("Serve on closed listener returned nil")
	}
}
