package chassis

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerStateMachine walks one circuit through every transition under
// both probe rules the tree uses: the crawl's (a count of sheds, no clock)
// and the gateway's (a cooldown on an injected clock). Only how an open
// circuit is brought to admit its probe differs, and that is the rule's row.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	rules := []struct {
		name string
		rule ProbeRule
		// relent takes an open circuit to the point where its next caller is
		// the probe, checking that it refuses everyone on the way there.
		relent func(t *testing.T, b *Breaker)
	}{
		{"probe after 3 sheds", AfterSheds(3), func(t *testing.T, b *Breaker) {
			for i := 1; i <= 2; i++ {
				if b.Allow() {
					t.Fatalf("open circuit admitted caller %d of 3", i)
				}
			}
		}},
		{"probe after a 1s cooldown", AfterCooldown(time.Second, func() time.Time { return now }), func(t *testing.T, b *Breaker) {
			if b.Allow() {
				t.Fatal("open circuit admitted during its cooldown")
			}
			now = now.Add(999 * time.Millisecond)
			if b.Allow() {
				t.Fatal("open circuit admitted 1ms early")
			}
			now = now.Add(time.Millisecond)
		}},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			b := NewBreaker(3, r.rule)
			state := func(want string) {
				t.Helper()
				if got := b.State(); got != want {
					t.Fatalf("state = %s, want %s", got, want)
				}
			}
			state("closed")

			// Closed: traffic flows, and a success clears the streak, so two
			// failures either side of it do not add up to three.
			for i := 0; i < 2; i++ {
				if !b.Allow() || b.Failure() {
					t.Fatalf("failure %d of a streak of 2 refused traffic or opened the circuit", i+1)
				}
			}
			b.Success()
			if b.Failure() || b.Failure() {
				t.Fatal("the streak survived an intervening success")
			}
			state("closed")

			// The third consecutive failure trips it.
			if !b.Failure() {
				t.Fatal("third consecutive failure did not open the circuit")
			}
			state("open")

			// Open: everyone is refused until the rule relents, then exactly
			// one probe goes through. Stragglers admitted before the trip
			// fail into an open circuit and change nothing — in particular
			// they do not restart the wait for the probe.
			r.relent(t, b)
			if b.Failure() || b.Failure() {
				t.Fatal("a straggler's failure opened an open circuit again")
			}
			state("open")
			if !b.Allow() {
				t.Fatal("the probe was refused")
			}
			state("half-open")
			if b.Allow() || b.Allow() {
				t.Fatal("a second caller was admitted beside the probe")
			}

			// A failed probe opens the circuit afresh: the whole wait again.
			if !b.Failure() {
				t.Fatal("the failed probe did not re-open the circuit")
			}
			state("open")
			r.relent(t, b)
			if !b.Allow() {
				t.Fatal("no probe after the second wait")
			}

			// A successful probe closes it, with a clean streak.
			b.Success()
			state("closed")
			if !b.Allow() || b.Failure() || b.Failure() {
				t.Fatal("the closed circuit refused traffic or remembered old failures")
			}
			if !b.Failure() {
				t.Fatal("three fresh failures did not trip it again")
			}

			// A straggler's success is proof enough that the far side lives:
			// it closes the circuit whatever state it finds.
			b.Success()
			state("closed")
			if !b.Allow() {
				t.Fatal("closed circuit refused")
			}
		})
	}
}

// TestBreakerHammer drives one circuit from many goroutines, for the race
// detector: the state, the streak and the open period's probe question are
// all reached from every caller. Afterwards the circuit still works.
func TestBreakerHammer(t *testing.T) {
	b := NewBreaker(2, AfterSheds(5))
	var admitted, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !b.Allow() {
					refused.Add(1)
					continue
				}
				admitted.Add(1)
				if (i+g)%3 == 0 {
					b.Success()
				} else {
					b.Failure()
				}
				_ = b.State()
			}
		}(g)
	}
	wg.Wait()
	if admitted.Load() == 0 || refused.Load() == 0 {
		t.Errorf("admitted %d, refused %d: the hammer never saw both sides of the gate", admitted.Load(), refused.Load())
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("after the hammer and a success: state %s", b.State())
	}
}
