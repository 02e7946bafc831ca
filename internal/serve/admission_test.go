package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionFastPathAndShed(t *testing.T) {
	a := newAdmission(1, 1, 10*time.Millisecond)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Slot held: the next caller queues and sheds on deadline.
	start := time.Now()
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("err = %v, want errShed", err)
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Errorf("shed after %v, expected to wait out the deadline", waited)
	}
	release()
	// Slot free again: acquire succeeds immediately.
	release2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

func TestAdmissionQueueBound(t *testing.T) {
	a := newAdmission(1, 1, time.Second)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot with a waiter.
	waiting := make(chan error, 1)
	go func() {
		_, err := a.acquire(context.Background())
		waiting <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Queue full: the next caller sheds instantly, without waiting.
	start := time.Now()
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("err = %v, want errShed", err)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Errorf("full-queue shed took %v, want immediate", waited)
	}
	release()
	if err := <-waiting; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release()
}

func TestAdmissionShedsCancelledCaller(t *testing.T) {
	a := newAdmission(1, 4, time.Minute)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if _, err := a.acquire(ctx); err != errShed {
		t.Fatalf("err = %v, want errShed on cancelled ctx", err)
	}
}

// TestAdmissionQueueBoundaryExact pins the queue-full edge: with maxQueue
// N, exactly N callers may wait; caller N+1 sheds instantly without
// perturbing the N legitimate waiters, and every waiter eventually admits
// once slots free up.
func TestAdmissionQueueBoundaryExact(t *testing.T) {
	const maxQueue = 3
	a := newAdmission(1, maxQueue, 5*time.Second)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Park exactly maxQueue waiters.
	results := make(chan error, maxQueue)
	for i := 0; i < maxQueue; i++ {
		go func() {
			rel, err := a.acquire(context.Background())
			if err == nil {
				defer rel()
				time.Sleep(time.Millisecond)
			}
			results <- err
		}()
	}
	// Wait until all of them are counted as queued.
	for deadline := time.Now().Add(2 * time.Second); a.queued.Load() != maxQueue; {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d waiters parked", a.queued.Load(), maxQueue)
		}
		time.Sleep(time.Millisecond)
	}

	// The boundary caller (maxQueue+1) sheds immediately.
	start := time.Now()
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("boundary caller: err = %v, want errShed", err)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Errorf("boundary shed took %v, want immediate", waited)
	}
	// The shed caller must not have stolen a queue slot: still maxQueue.
	if got := a.queued.Load(); got != maxQueue {
		t.Errorf("queued = %d after boundary shed, want %d", got, maxQueue)
	}

	release()
	for i := 0; i < maxQueue; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked waiter %d: %v", i, err)
		}
	}
	if got := a.queued.Load(); got != 0 {
		t.Errorf("queued = %d after drain, want 0", got)
	}
}

// TestAdmissionDeadlineExpiryWhileQueued: a waiter whose queue deadline
// fires must shed after (not before) the deadline and must return the
// queue gauge to zero — a leaked queued count would eventually wedge
// admission entirely.
func TestAdmissionDeadlineExpiryWhileQueued(t *testing.T) {
	const timeout = 30 * time.Millisecond
	a := newAdmission(1, 4, timeout)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	if _, err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("err = %v, want errShed", err)
	}
	if waited := time.Since(start); waited < timeout {
		t.Errorf("shed after %v, before the %v deadline", waited, timeout)
	}
	if got := a.queued.Load(); got != 0 {
		t.Errorf("queued = %d after deadline shed, want 0", got)
	}
}

// TestAdmissionShutdownRacingAdmission storms acquire/release while the
// shared context is cancelled mid-flight (the shape of a server shutdown
// racing live admission). Run under -race by `make race`. Invariants: no
// acquire hangs, every success is released, and both the queue gauge and
// the slot pool end empty.
func TestAdmissionShutdownRacingAdmission(t *testing.T) {
	a := newAdmission(2, 4, 50*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())

	const stormers = 16
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < stormers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				release, err := a.acquire(ctx)
				if err != nil {
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				if j%3 == 0 {
					time.Sleep(100 * time.Microsecond) // hold the slot across the cancel
				}
				release()
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	cancel() // shutdown lands mid-storm
	wg.Wait()

	if admitted.Load() == 0 {
		t.Error("nothing admitted before shutdown")
	}
	if shed.Load() == 0 {
		t.Error("cancellation shed nothing — race never happened")
	}
	if got := a.queued.Load(); got != 0 {
		t.Errorf("queued = %d after storm, want 0", got)
	}
	if got := len(a.slots); got != 0 {
		t.Errorf("%d slots still held after storm", got)
	}
}

// TestLoadSheddingEndToEnd drives a deliberately tiny server far past its
// capacity and checks the overload contract: every request is answered,
// overflow becomes 429 (with Retry-After and a structured body), nothing
// becomes a 5xx, and the shed counter matches the 429s the clients saw.
// The test holds the one worker ticket itself while the clients fire, so
// every one of them finds the server at capacity, and frees it for a last
// request that must be served.
func TestLoadSheddingEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		Queue:        2,
		QueueTimeout: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ok200, shed429, other atomic.Int64
	var retryAfterSeen atomic.Bool
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
			strings.NewReader(`{"url":"http://ads.example.com/banner.js"}`))
		if err != nil {
			other.Add(1)
			return
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			ok200.Add(1)
		case 429:
			shed429.Add(1)
			if resp.Header.Get("Retry-After") != "" {
				retryAfterSeen.Store(true)
			}
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code != "shed" {
				t.Errorf("shed body not structured: %v %+v", err, envelope)
			}
		default:
			other.Add(1)
		}
	}

	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				post()
			}
		}()
	}
	wg.Wait()
	if ok200.Load() != 0 || shed429.Load() != clients*4 {
		t.Fatalf("with the only worker busy: %d served, %d shed of %d", ok200.Load(), shed429.Load(), clients*4)
	}
	release()
	post()

	if other.Load() != 0 {
		t.Fatalf("%d unexpected responses", other.Load())
	}
	if ok200.Load() != 1 {
		t.Fatal("the request after the worker freed up was not served")
	}
	if !retryAfterSeen.Load() {
		t.Error("429s missing Retry-After")
	}
	ep := s.met.endpoints[epMatch]
	if shed := int64(ep.Shed.Load()); shed != shed429.Load() {
		t.Errorf("shed metric = %d, clients saw %d", shed, shed429.Load())
	}
	if reqs := int64(ep.Requests.Load()); reqs != ok200.Load()+shed429.Load() {
		t.Errorf("requests metric = %d, want %d", reqs, ok200.Load()+shed429.Load())
	}
}
