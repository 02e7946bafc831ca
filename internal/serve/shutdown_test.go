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
// metrics snapshot lands on MetricsOut. The test holds both worker tickets
// itself, so the request waits in the admission queue until the drain has
// closed the listener, and only then lets it through.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	var metricsOut bytes.Buffer
	s := newTestServer(t, Config{
		Workers:      2,
		QueueTimeout: 10 * time.Second,
		MetricsOut:   &metricsOut,
	})
	var held []func()
	for i := 0; i < 2; i++ {
		release, err := s.adm.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := fmt.Sprintf("http://%s/v1/match", addr)
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

	// The request is in flight once it queues for a worker; then pull the
	// plug, and free the workers only once the listener is gone.
	waitUntil(t, "the request to queue", func() bool { return s.adm.queued.Load() == 1 })
	cancel()
	waitUntil(t, "the drain to close the listener", func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	for _, release := range held {
		release()
	}

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

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
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
