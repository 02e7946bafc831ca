package features

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"adwars/internal/crawler"
	"adwars/internal/jsast"
)

// ErrPanic marks an extraction task that panicked; the panic was confined
// to that task's slot instead of killing the worker pool (and with it the
// process — a pool goroutine has no other recover boundary above it).
var ErrPanic = errors.New("features: panic during extraction")

// runIsolated invokes fn and converts a panic into an error wrapping
// ErrPanic. It is the per-task recover boundary for worker-pool work: a
// panicking task must cost exactly its own result, never the pool.
func runIsolated(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, v)
		}
	}()
	fn()
	return nil
}

// eachIsolated runs task(i) for every i in [0, n) on the shared crawler
// worker pool and files what it returns under errs[i]. A task that panics
// costs its own slot — errs[i] wraps ErrPanic — and nothing else. The
// returned error is non-nil only when ctx is cancelled; slots not yet fed
// keep nil errors. workers ≤ 0 means GOMAXPROCS.
func eachIsolated(ctx context.Context, workers, n int, task func(i int) error) (errs []error, err error) {
	errs = make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err = crawler.ForEach(ctx, workers, n, func(i int) {
		if perr := runIsolated(func() { errs[i] = task(i) }); perr != nil {
			errs[i] = perr
		}
	})
	return errs, err
}

// extract is ExtractAll's walk of one parsed script under one set; a test
// swaps in a walk that panics to show the panic costs one script.
var extract = Extract

// ExtractAll fans unpack+parse+Extract for a script corpus out over the
// shared crawler worker pool, parsing each script once and walking it once
// per feature set. sets[s][i] is sources[i]'s features under featureSets[s].
// Results land in caller-visible slots indexed by input position, so the
// output order is the input order and feeding sets[s] to Build yields a
// vocabulary byte-identical to a sequential ExtractSource loop under
// featureSets[s] at any worker count. It builds datasets; to classify
// scripts against a vocabulary that already exists, use ProjectAll.
//
// errs[i] is non-nil for scripts that fail to parse (callers typically
// drop them, as the paper does) or whose extraction panicked (the panic
// is recovered per-slot; errs[i] wraps ErrPanic). One parse serves every
// set, so a script with an error has no features in any set: a panic under
// one set drops the script from all of them, and costs no other script.
// The returned error is non-nil only when ctx is cancelled; slots not yet
// fed keep nil sets and nil errors.
func ExtractAll(ctx context.Context, sources []string, featureSets []Set, workers int) (sets [][]map[string]bool, errs []error, err error) {
	sets = make([][]map[string]bool, len(featureSets))
	for s := range sets {
		sets[s] = make([]map[string]bool, len(sources))
	}
	errs, err = eachIsolated(ctx, workers, len(sources), func(i int) error {
		prog, _, err := jsast.ParseAndUnpack(sources[i])
		if err != nil {
			return err
		}
		fs := make([]map[string]bool, len(featureSets))
		for s, set := range featureSets {
			fs[s] = extract(prog, set)
		}
		for s := range fs { // filed only once every set is walked
			sets[s][i] = fs[s]
		}
		return nil
	})
	return sets, errs, err
}

// ProjectAll is ProjectSource for a batch of scripts, fanned out and
// isolated per slot exactly as ExtractAll is: samples[i] belongs to
// sources[i], and errs[i] says why there is none.
func (v *Vocab) ProjectAll(ctx context.Context, sources []string, set Set, workers int) (samples []Sample, errs []error, err error) {
	samples = make([]Sample, len(sources))
	errs, err = eachIsolated(ctx, workers, len(sources), func(i int) (e error) {
		samples[i], e = v.ProjectSource(sources[i], set)
		return e
	})
	return samples, errs, err
}
