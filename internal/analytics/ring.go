// Package analytics is the decision analytics pipeline behind the
// serving data plane: a lock-free, per-shard ring-buffered event log that
// the /v1/match and /v1/classify verdict paths write into without ever
// blocking (a full ring drops the event and says so in a counter), a
// background consumer that drains the rings into a streaming aggregator
// with bounded-memory time buckets keyed by domain / rule / verdict, and
// a JSONL spill with rotation so a serving run leaves a replayable record
// that adwars-report -live turns into coverage dashboards comparable to
// the retrospective replay figures. Nothing samples: every decision either
// reaches the totals or is counted as a ring drop, at every governor level,
// so per-rule counts stay exact when traffic is heaviest.
package analytics

import "sync/atomic"

// Kind says which decision endpoint produced an event.
type Kind uint8

const (
	KindMatch Kind = iota
	KindClassify
)

func (k Kind) String() string {
	if k == KindClassify {
		return "classify"
	}
	return "match"
}

// Verdict is the decision outcome an event records. Match events use the
// merged-list decision (blocked / allowed / no-match); classify events
// use the model's binary call (anti-adblock / benign).
type Verdict uint8

const (
	VerdictNoMatch Verdict = iota
	VerdictBlocked
	VerdictAllowed
	VerdictAntiAdblock
	VerdictBenign
	verdictCount // sentinel for fixed-size totals arrays
)

var verdictNames = [verdictCount]string{
	"no-match", "blocked", "allowed", "anti-adblock", "benign",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "no-match"
}

// Event is one recorded decision. The string fields alias memory the
// producer already owns (the decoded request's domain, the compiled
// list's rule text), so recording an event allocates nothing; the
// consumer copies what it keeps before the slot is reused.
type Event struct {
	// UnixNano is the decision timestamp.
	UnixNano int64
	Kind     Kind
	Verdict  Verdict
	// Ordinal is the winning rule's insertion ordinal within its list
	// (-1 when no rule fired or the event is a classification).
	Ordinal int32
	// Domain attributes the decision: the query's page domain when given,
	// else the request URL's host; empty for classifications.
	Domain string
	// Rule is the winning rule's raw text ("" when none fired).
	Rule string
}

// slot is one ring cell: Vyukov's per-slot sequence number plus the
// payload. seq == index means "free for the producer whose position is
// index"; seq == index+1 means "filled, waiting for the consumer".
type slot struct {
	seq atomic.Uint64
	ev  Event
}

// ring is a bounded lock-free multi-producer / single-consumer event
// queue (Vyukov's bounded queue specialized to one consumer). Producers
// never block and never spin unbounded: when the ring is full the event
// is dropped on the floor and the drop counter ticks — backpressure on
// the serving hot path is never an option, losing telemetry is.
type ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64 // next producer position
	tail  atomic.Uint64 // next consumer position (single consumer; atomic so occupancy reads are clean)
	drops atomic.Uint64 // events refused because the ring was full
}

// newRing builds a ring of size slots; size must be a power of two.
func newRing(size int) *ring {
	r := &ring{slots: make([]slot, size), mask: uint64(size - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues one event, returning false (and counting a drop) when the
// ring is full. It is safe for any number of concurrent producers.
func (r *ring) push(ev *Event) bool {
	pos := r.head.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			// The slot is free for this position; claim it. A producer that
			// wins the CAS but is descheduled before the seq store below
			// just makes the slot look not-ready — the consumer skips it and
			// later producers see "full", never a torn event.
			if r.head.CompareAndSwap(pos, pos+1) {
				s.ev = *ev
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.head.Load()
		case seq < pos:
			// The slot still holds an event from one lap ago: full.
			r.drops.Add(1)
			return false
		default:
			// Another producer claimed this position; reload and retry.
			pos = r.head.Load()
		}
	}
}

// pop dequeues one event into ev, returning false when the ring is empty
// (or the next slot's producer has not finished its store yet). Single
// consumer only.
func (r *ring) pop(ev *Event) bool {
	pos := r.tail.Load()
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return false
	}
	*ev = s.ev
	// Clear the payload before recycling so the ring does not pin request
	// bodies and rule text for a whole lap.
	s.ev = Event{}
	s.seq.Store(pos + uint64(len(r.slots)))
	r.tail.Store(pos + 1)
	return true
}

// occupancy is the number of events currently buffered (approximate under
// concurrent pushes).
func (r *ring) occupancy() int {
	h, t := r.head.Load(), r.tail.Load()
	if h < t {
		return 0
	}
	return int(h - t)
}
