package fleet

import "testing"

// TestBreakerDefaults: a backend ejects on its third consecutive failure and
// is not re-admitted before its cooldown. (The circuit itself is
// internal/chassis's, tested there.)
func TestBreakerDefaults(t *testing.T) {
	b := newBackend("http://replica")
	b.fail()
	b.fail()
	if b.ejections.Load() != 0 || !b.br.Allow() {
		t.Fatal("ejected before the third consecutive failure")
	}
	b.fail()
	if b.ejections.Load() != 1 || b.br.State() != "open" {
		t.Fatalf("after three failures: ejections=%d breaker=%s, want 1, open", b.ejections.Load(), b.br.State())
	}
	if b.br.Allow() {
		t.Fatal("an ejected backend was re-admitted at once")
	}
}
