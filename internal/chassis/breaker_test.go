package chassis

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerStateMachine walks one circuit through every transition, on an
// injected clock: closed, open for its cooldown, half-open behind one probe,
// and back. The walk keeps the subtest name it had when the breaker also had
// a shed-count probe rule.
func TestBreakerStateMachine(t *testing.T) {
	t.Run("probe after a 1s cooldown", func(t *testing.T) {
		now := time.Unix(1000, 0)
		b := NewBreaker(3, time.Second, func() time.Time { return now })
		state := func(want string) {
			t.Helper()
			if got := b.State(); got != want {
				t.Fatalf("state = %s, want %s", got, want)
			}
		}
		// cool takes an open circuit to the end of its cooldown, checking that it
		// refuses everyone on the way there.
		cool := func() {
			t.Helper()
			if b.Allow() {
				t.Fatal("open circuit admitted during its cooldown")
			}
			now = now.Add(999 * time.Millisecond)
			if b.Allow() {
				t.Fatal("open circuit admitted 1ms early")
			}
			now = now.Add(time.Millisecond)
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

		// Open: everyone is refused until the cooldown has passed, then exactly
		// one probe goes through. Stragglers admitted before the trip fail into
		// an open circuit and change nothing — in particular they do not restart
		// the cooldown.
		cool()
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

		// A failed probe opens the circuit afresh: the whole cooldown again.
		if !b.Failure() {
			t.Fatal("the failed probe did not re-open the circuit")
		}
		state("open")
		cool()
		if !b.Allow() {
			t.Fatal("no probe after the second cooldown")
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

		// A straggler's success is proof enough that the far side lives: it
		// closes the circuit whatever state it finds.
		b.Success()
		state("closed")
		if !b.Allow() {
			t.Fatal("closed circuit refused")
		}
	})
}

// TestBreakerHammer drives one circuit from many goroutines, for the race
// detector: the state, the streak, the opening time and the clock are all
// reached from every caller. The injected clock moves a millisecond each time
// the breaker reads it, which it does only when the circuit opens and when an
// open circuit is asked to admit. So every read beyond one per open and one
// per probe is a caller an open circuit refused before its cooldown ended:
// the hammer sees both sides of the gate, and a zero cooldown, which admits
// the first caller of every open period, fails it. Afterwards the circuit
// still works.
func TestBreakerHammer(t *testing.T) {
	var clock atomic.Int64
	b := NewBreaker(2, 20*time.Millisecond, func() time.Time {
		return time.Unix(0, clock.Add(int64(time.Millisecond)))
	})
	var admitted, opens atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !b.Allow() {
					continue
				}
				admitted.Add(1)
				if (i+g)%3 == 0 {
					b.Success()
				} else if b.Failure() {
					opens.Add(1)
				}
				_ = b.State()
			}
		}(g)
	}
	wg.Wait()
	reads := clock.Load() / int64(time.Millisecond)
	// Each open period has at most one probe.
	if admitted.Load() == 0 || opens.Load() == 0 || reads <= 2*opens.Load() {
		t.Errorf("admitted %d, opened %d times, clock read %d times: the hammer never saw an open circuit refuse a caller",
			admitted.Load(), opens.Load(), reads)
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("after the hammer and a success: state %s", b.State())
	}
}
