package features

import (
	"context"
	"errors"
	"fmt"

	"adwars/internal/fanout"
	"adwars/internal/jsast"
)

// ErrPanic marks an extraction task that panicked; the panic was confined
// to that task's slot instead of killing the worker pool (and with it the
// process — a pool goroutine has no other recover boundary above it).
var ErrPanic = errors.New("features: panic during extraction")

// RunIsolated returns what fn returns, or an error wrapping ErrPanic when fn
// panics. It is the per-task recover boundary of ExtractAll's worker pool
// and of each /v1/classify/batch slot: a panicking task must cost exactly
// its own result, never the pool or the batch.
func RunIsolated(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, v)
		}
	}()
	return fn()
}

// extract is ExtractAll's walk of one parsed script under one set; a test
// swaps in a walk that panics to show the panic costs one script.
var extract = Extract

// ExtractAll fans unpack+parse+Extract for a script corpus out over the
// shared fanout.ForEach pool, parsing each script once and walking it once
// per feature set. sets[s][i] is sources[i]'s features under featureSets[s].
// Results land in caller-visible slots indexed by input position, so the
// output order is the input order and feeding sets[s] to Build yields a
// vocabulary byte-identical to a sequential ExtractSource loop under
// featureSets[s] at any worker count. It builds datasets; to classify a
// script against a vocabulary that already exists, use ProjectSource.
//
// errs[i] is non-nil for scripts that fail to parse (callers typically
// drop them, as the paper does) or whose extraction panicked (the panic
// is recovered per-slot; errs[i] wraps ErrPanic). One parse serves every
// set, so a script with an error has no features in any set: a panic under
// one set drops the script from all of them, and costs no other script.
// The returned error is non-nil only when ctx is cancelled; slots not yet
// fed keep nil sets and nil errors. workers ≤ 0 means one per core.
func ExtractAll(ctx context.Context, sources []string, featureSets []Set, workers int) (sets [][]map[string]bool, errs []error, err error) {
	sets = make([][]map[string]bool, len(featureSets))
	for s := range sets {
		sets[s] = make([]map[string]bool, len(sources))
	}
	errs = make([]error, len(sources))
	err = fanout.ForEach(ctx, workers, len(sources), func(i int) {
		errs[i] = RunIsolated(func() error {
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
	})
	return sets, errs, err
}
