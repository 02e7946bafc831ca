package wayback

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// faultyArchive builds an archive with fault injection enabled.
func faultyArchive(n int, fc FaultConfig) (*Archive, []string) {
	domains := make([]string, n)
	src := stubSource{}
	for i := range domains {
		domains[i] = fmt.Sprintf("site%04d.com", i)
		src[domains[i]] = testPage(domains[i])
	}
	cfg := DefaultConfig(42)
	cfg.Robots, cfg.Admin, cfg.Undefined = 0, 0, 0
	cfg.Faults = fc
	return New(src, domains, cfg), domains
}

func TestFaultScheduleDeterministic(t *testing.T) {
	fc := DefaultFaultConfig(0.3, 9)
	f1 := NewFaultInjector(fc)
	f2 := NewFaultInjector(fc)
	for d := 0; d < 50; d++ {
		domain := fmt.Sprintf("d%02d.com", d)
		for attempt := 0; attempt < 10; attempt++ {
			e1 := f1.Check("avail", domain, 100, attempt)
			e2 := f2.Check("avail", domain, 100, attempt)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s attempt %d: schedules diverge", domain, attempt)
			}
			if e1 != nil && e1.Error() != e2.Error() {
				t.Fatalf("%s attempt %d: %q vs %q", domain, attempt, e1, e2)
			}
		}
	}
}

func TestFaultConsecutiveBound(t *testing.T) {
	fc := DefaultFaultConfig(0.9, 3) // hostile rate to stress the bound
	f := NewFaultInjector(fc)
	bound := fc.MaxFailuresPerRequest()
	if bound != fc.MaxConsecutive+fc.OutageDepth {
		t.Fatalf("bound = %d", bound)
	}
	for d := 0; d < 200; d++ {
		domain := fmt.Sprintf("d%03d.com", d)
		for epoch := int64(1); epoch < 20; epoch++ {
			if err := f.Check("fetch", domain, epoch, bound); err != nil {
				t.Fatalf("attempt %d of %s/%d still fails: %v", bound, domain, epoch, err)
			}
		}
	}
}

func TestFaultMarginalRate(t *testing.T) {
	fc := FaultConfig{Rate: 0.2, Seed: 5} // no outages: isolate the per-request rate
	f := NewFaultInjector(fc)
	fails := 0
	const n = 5000
	for d := 0; d < n; d++ {
		if f.Check("avail", fmt.Sprintf("d%04d.com", d), 7, 0) != nil {
			fails++
		}
	}
	got := float64(fails) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("first-attempt failure rate = %.3f, want ≈0.2", got)
	}
}

func TestFaultOutageAffectsAllRequests(t *testing.T) {
	fc := FaultConfig{OutageRate: 1, OutageDepth: 3, Seed: 1}
	f := NewFaultInjector(fc)
	for d := 0; d < 20; d++ {
		domain := fmt.Sprintf("d%02d.com", d)
		for attempt := 0; attempt < 3; attempt++ {
			err := f.Check("avail", domain, 42, attempt)
			var te *TransientError
			if !errors.As(err, &te) || te.Kind != FaultOutage {
				t.Fatalf("attempt %d of %s: want outage, got %v", attempt, domain, err)
			}
		}
		if err := f.Check("avail", domain, 42, 3); err != nil {
			t.Fatalf("post-outage attempt of %s fails: %v", domain, err)
		}
	}
}

func TestFaultTruncatedAvailabilityJSON(t *testing.T) {
	a, domains := faultyArchive(500, FaultConfig{Rate: 0.5, MaxConsecutive: 2, Seed: 11})
	m := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	sawTruncated := false
	for _, d := range domains {
		for attempt := 0; attempt < 3; attempt++ {
			body, err := a.QueryAvailabilityAttempt(d, m, attempt)
			if err != nil {
				continue // typed transient fault; other tests cover it
			}
			if _, perr := ParseAvailability(body); perr != nil {
				sawTruncated = true
				// Retrying past the bound must yield a parseable body.
				body, err := a.QueryAvailabilityAttempt(d, m, 2)
				if err != nil {
					t.Fatalf("%s attempt 2: %v", d, err)
				}
				if _, perr := ParseAvailability(body); perr != nil {
					t.Fatalf("%s: body still corrupt past the fault bound", d)
				}
			}
		}
		if sawTruncated {
			break
		}
	}
	if !sawTruncated {
		t.Fatal("no truncated availability body injected in 500 domains")
	}
}

func TestFaultRetryAfterOnRateLimit(t *testing.T) {
	f := NewFaultInjector(FaultConfig{Rate: 0.9, MaxConsecutive: 4, RetryAfter: time.Second, Seed: 2})
	found := false
	for d := 0; d < 200 && !found; d++ {
		err := f.Check("fetch", fmt.Sprintf("d%03d.com", d), 3, 0)
		var te *TransientError
		if errors.As(err, &te) && te.Kind == FaultRateLimit {
			if te.RetryAfter <= 0 {
				t.Fatal("rate-limit fault carries no Retry-After hint")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no rate-limit fault injected")
	}
}

func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultRateLimit: "rate-limit", FaultTimeout: "timeout",
		FaultTruncated: "truncated", FaultOutage: "outage",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestNilInjectorNeverFaults(t *testing.T) {
	var f *FaultInjector
	if err := f.Check("avail", "x.com", 1, 0); err != nil {
		t.Fatal("nil injector must not fault")
	}
	if NewFaultInjector(FaultConfig{}) != nil {
		t.Fatal("disabled config must build a nil injector")
	}
}
