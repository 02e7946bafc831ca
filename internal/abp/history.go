package abp

import (
	"sort"
	"sync"
	"time"
)

// Revision is one published version of a filter list.
type Revision struct {
	// Time is when the revision was published.
	Time time.Time
	// Rules is the complete rule set of the list at that time.
	Rules []*Rule
}

// History is the time-ordered revision history of a filter list. It backs
// the temporal analyses of §3 (Figure 1, Figure 3) and lets the coverage
// measurement of §4.2 replay "the filter list as it existed at time t".
type History struct {
	// Name identifies the list.
	Name string

	revisions []Revision

	// compiled caches one *List per revision index, so replaying 60 months
	// against a history compiles each revision once instead of once per
	// month. Guarded by mu; safe for concurrent ListAt callers (the sharded
	// replay hits the same revision from many workers).
	mu       sync.Mutex
	compiled map[int]*List
}

// NewHistory creates an empty history for the named list.
func NewHistory(name string) *History { return &History{Name: name} }

// Append adds a revision. Revisions must be appended in chronological
// order; Append panics otherwise, since out-of-order histories would
// silently corrupt every temporal analysis.
func (h *History) Append(t time.Time, rules []*Rule) {
	if n := len(h.revisions); n > 0 && t.Before(h.revisions[n-1].Time) {
		panic("abp: revisions must be appended in chronological order")
	}
	h.revisions = append(h.revisions, Revision{Time: t, Rules: rules})
}

// Revisions returns the revisions in chronological order. The returned
// slice must not be modified.
func (h *History) Revisions() []Revision { return h.revisions }

// Len returns the number of revisions.
func (h *History) Len() int { return len(h.revisions) }

// At returns the revision in force at time t: the latest revision published
// at or before t. It returns false when the list did not exist yet.
func (h *History) At(t time.Time) (Revision, bool) {
	i := h.indexAt(t)
	if i < 0 {
		return Revision{}, false
	}
	return h.revisions[i], true
}

// indexAt returns the index of the revision in force at t, or -1.
func (h *History) indexAt(t time.Time) int {
	i := sort.Search(len(h.revisions), func(i int) bool {
		return h.revisions[i].Time.After(t)
	})
	return i - 1
}

// ListAt returns the compiled list as it existed at time t, or nil if it
// did not exist yet. Compilation is cached per revision and the cache is
// safe for concurrent callers; the returned List is shared, which is fine
// because compiled lists are immutable.
func (h *History) ListAt(t time.Time) *List {
	i := h.indexAt(t)
	if i < 0 {
		return nil
	}
	return h.listFor(i)
}

// LatestList returns the compiled most recent revision (nil for an empty
// history), sharing the same per-revision cache as ListAt.
func (h *History) LatestList() *List {
	if len(h.revisions) == 0 {
		return nil
	}
	return h.listFor(len(h.revisions) - 1)
}

// listFor compiles revision i exactly once.
func (h *History) listFor(i int) *List {
	h.mu.Lock()
	defer h.mu.Unlock()
	if l, ok := h.compiled[i]; ok {
		return l
	}
	if h.compiled == nil {
		h.compiled = make(map[int]*List)
	}
	l := NewList(h.Name, h.revisions[i].Rules)
	h.compiled[i] = l
	return l
}

// Latest returns the most recent revision; ok is false for empty histories.
func (h *History) Latest() (Revision, bool) {
	if len(h.revisions) == 0 {
		return Revision{}, false
	}
	return h.revisions[len(h.revisions)-1], true
}

// DomainFirstSeen returns, for every domain ever targeted by the list, the
// time of the first revision whose rules target it. Figure 3 and Figure 7
// are computed from these times.
func (h *History) DomainFirstSeen() map[string]time.Time {
	first := make(map[string]time.Time)
	for _, rev := range h.revisions {
		for _, r := range rev.Rules {
			for _, d := range r.TargetDomains() {
				if _, ok := first[d]; !ok {
					first[d] = rev.Time
				}
			}
		}
	}
	return first
}

// ChurnPerRevision returns the mean number of rules added or modified per
// revision, computed over consecutive revision pairs by comparing raw rule
// text sets. The paper reports this as "adds or modifies N filter rules for
// every revision on average".
func (h *History) ChurnPerRevision() float64 {
	if len(h.revisions) < 2 {
		return 0
	}
	total := 0
	for i := 1; i < len(h.revisions); i++ {
		prev := make(map[string]bool, len(h.revisions[i-1].Rules))
		for _, r := range h.revisions[i-1].Rules {
			prev[r.Raw] = true
		}
		for _, r := range h.revisions[i].Rules {
			if !prev[r.Raw] {
				total++
			}
		}
	}
	return float64(total) / float64(len(h.revisions)-1)
}

// MergeHistories combines several histories into one ("Combined EasyList"
// = Adblock Warning Removal List + EasyList anti-adblock sections). A
// revision of the merged list exists at every time any input list revised;
// its rules are the union of the inputs' rules in force at that time.
func MergeHistories(name string, hs ...*History) *History {
	timeSet := make(map[time.Time]bool)
	for _, h := range hs {
		for _, rev := range h.revisions {
			timeSet[rev.Time] = true
		}
	}
	times := make([]time.Time, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })

	merged := NewHistory(name)
	for _, t := range times {
		var rules []*Rule
		for _, h := range hs {
			if rev, ok := h.At(t); ok {
				rules = append(rules, rev.Rules...)
			}
		}
		merged.Append(t, rules)
	}
	return merged
}
