package abp

import (
	"testing"
	"time"
)

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func rules(t *testing.T, lines ...string) []*Rule {
	t.Helper()
	var rs []*Rule
	for _, l := range lines {
		rs = append(rs, mustParse(t, l))
	}
	return rs
}

func TestHistoryAt(t *testing.T) {
	h := NewHistory("aak")
	h.Append(day(2014, 2, 1), rules(t, "||a.com^"))
	h.Append(day(2014, 3, 1), rules(t, "||a.com^", "||b.com^"))
	h.Append(day(2014, 4, 1), rules(t, "||a.com^", "||b.com^", "c.com###x"))

	if _, ok := h.At(day(2014, 1, 15)); ok {
		t.Error("list should not exist before first revision")
	}
	rev, ok := h.At(day(2014, 3, 15))
	if !ok || len(rev.Rules) != 2 {
		t.Fatalf("At(mid-March) = %v rules, want 2", len(rev.Rules))
	}
	rev, ok = h.At(day(2014, 3, 1))
	if !ok || len(rev.Rules) != 2 {
		t.Fatal("At(exact revision time) should return that revision")
	}
	rev, _ = h.At(day(2020, 1, 1))
	if len(rev.Rules) != 3 {
		t.Fatal("At(future) should return the latest revision")
	}
}

func TestHistoryAppendOrderPanics(t *testing.T) {
	h := NewHistory("x")
	h.Append(day(2015, 6, 1), nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append should panic")
		}
	}()
	h.Append(day(2015, 5, 1), nil)
}

func TestHistoryListAt(t *testing.T) {
	h := NewHistory("x")
	if h.ListAt(day(2015, 1, 1)) != nil {
		t.Error("ListAt on empty history should be nil")
	}
	h.Append(day(2015, 1, 1), rules(t, "||a.com^"))
	l := h.ListAt(day(2015, 2, 1))
	if l == nil || l.Len() != 1 {
		t.Fatal("ListAt should compile the in-force revision")
	}
}

func TestDomainFirstSeen(t *testing.T) {
	h := NewHistory("x")
	h.Append(day(2014, 1, 1), rules(t, "||a.com^"))
	h.Append(day(2014, 2, 1), rules(t, "||a.com^", "b.com###x"))
	first := h.DomainFirstSeen()
	if !first["a.com"].Equal(day(2014, 1, 1)) {
		t.Errorf("a.com first seen %v", first["a.com"])
	}
	if !first["b.com"].Equal(day(2014, 2, 1)) {
		t.Errorf("b.com first seen %v", first["b.com"])
	}
}

func TestChurnPerRevision(t *testing.T) {
	h := NewHistory("x")
	h.Append(day(2014, 1, 1), rules(t, "||a.com^"))
	h.Append(day(2014, 2, 1), rules(t, "||a.com^", "||b.com^", "||c.com^"))
	h.Append(day(2014, 3, 1), rules(t, "||a.com^", "||b.com^", "||c.com^"))
	// Revision 2 added 2 rules, revision 3 added 0 → mean 1.0.
	if got := h.ChurnPerRevision(); got != 1.0 {
		t.Fatalf("churn = %v, want 1.0", got)
	}
	h = NewHistory("y")
	h.Append(day(2014, 1, 1), rules(t, "||a.com^"))
	h.Append(day(2014, 2, 1), rules(t, "||a.com^", "||b.com^", "||c.com^"))
	h.Append(day(2014, 3, 1), rules(t, "||a.com^", "||b.com^", "||c.com^", "||d.com^"))
	// 2 added, then 1 → mean 1.5.
	if got := h.ChurnPerRevision(); got != 1.5 {
		t.Fatalf("churn = %v, want 1.5", got)
	}
}

func TestMergeHistories(t *testing.T) {
	a := NewHistory("awrl")
	a.Append(day(2013, 1, 1), rules(t, "x.com###warn"))
	a.Append(day(2013, 6, 1), rules(t, "x.com###warn", "y.com###warn"))
	b := NewHistory("easylist-aa")
	b.Append(day(2011, 5, 1), rules(t, "||z.com^"))

	m := MergeHistories("combined", a, b)
	if m.Len() != 3 {
		t.Fatalf("merged revisions = %d, want 3", m.Len())
	}
	// Before AWRL exists, combined == EasyList only.
	rev, _ := m.At(day(2012, 1, 1))
	if len(rev.Rules) != 1 {
		t.Fatalf("2012 combined rules = %d, want 1", len(rev.Rules))
	}
	rev, _ = m.At(day(2013, 7, 1))
	if len(rev.Rules) != 3 {
		t.Fatalf("2013-07 combined rules = %d, want 3", len(rev.Rules))
	}
}

func TestHistoryLatest(t *testing.T) {
	h := NewHistory("x")
	if _, ok := h.Latest(); ok {
		t.Error("empty history has no latest revision")
	}
	h.Append(day(2016, 7, 1), rules(t, "||a.com^"))
	rev, ok := h.Latest()
	if !ok || !rev.Time.Equal(day(2016, 7, 1)) {
		t.Error("Latest should return the last appended revision")
	}
}
