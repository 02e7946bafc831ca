package ml

import "math"

const (
	// unit is the unit roundoff of float64, u = 2⁻⁵³: a rounded add,
	// subtract, multiply or divide returns x(1+δ) with |δ| ≤ u.
	unit = 0x1p-53
	// underflow is absolute slack for results below the normal range, where
	// the relative model does not hold: each such rounding is off by at most
	// 2⁻¹⁰⁷⁵, and no bound below adds up more than a handful of them.
	underflow = 0x1p-1000
)

// estimate is the certificate solveSMO consults before it takes an ordered
// sum. For every sample k it holds f[k], a running estimate of the decision
// b + Σ coef·K(·, xₖ), kept by adding each step's change. Let F[k] be that
// decision evaluated exactly, in real arithmetic, over the solver's float α,
// b and Gram entries. Then the ordered sum lies within sumErr of F[k], and
// f[k] lies within sumMax + drift − g0[k] of F[k]: sumMax bounds the
// rounding of the sum f[k] was last reset to, and drift − g0[k] what the
// updates since can have added. So the ordered sum of sample k lies in
// interval(k) — always, not usually. The premises are that no Gram entry
// exceeds 1 in magnitude and that every α, b and penalty is finite, which
// the training entry points' input checks guarantee.
//
// The per-step rounding bound is the same for every sample, so a step costs
// one multiply-add pass over two Gram rows, against a pass over the active
// set for every sample re-summed.
type estimate struct {
	f, g0  []float64
	drift  float64 // grows by each step's rounding bound; never falls
	sumErr float64 // bound on an ordered sum's rounding at the current α, b
	sumMax float64 // the largest sumErr so far
}

// newEstimate starts every sample at α = 0, b = 0, where every decision,
// exact or ordered, is 0.
func newEstimate(n int) *estimate {
	return &estimate{f: make([]float64, n), g0: make([]float64, n), sumErr: underflow, sumMax: underflow}
}

// reset records v, sample k's ordered sum at the current α and b.
func (e *estimate) reset(k int, v float64) { e.f[k], e.g0[k] = v, e.drift }

// interval returns lo ≤ hi with sample k's ordered sum certainly in
// [lo, hi], or NaNs when the estimate has left the finite range. The radius
// sumMax + sumErr + drift − g0[k] is widened by 4u·|f[k]| and then by the
// factor 1 + 16u: after the radius' own four roundings that still exceeds
// the bound by 3u·(bound + |f[k]|), more than the rounding of f[k] ∓ radius
// can take back (u·(|f[k]| + radius); sumErr ≥ 2⁻¹⁰⁰⁰ covers an end that
// underflows).
func (e *estimate) interval(k int) (lo, hi float64) {
	f := e.f[k]
	r := (e.sumMax + e.sumErr + (e.drift - e.g0[k]) + 4*unit*math.Abs(f)) * (1 + 16*unit)
	return f - r, f + r
}

// step applies a solver step that changed coefᵢ by dci, coefⱼ by dcj and b
// by db, each the rounded difference of the new and old floats, to every
// sample; ri and rj are Gram rows i and j, b is the bias after the step and
// alphaSum bounds Σ|α| over its m active samples.
//
// Since F is linear in b and the coefficients, the step changes F[k] by
// exactly (ci′ − ci)·K[i][k] + (cj′ − cj)·K[j][k] + (b′ − b). The rounded
// update t = dci·ri[k] + dcj·rj[k] + db is within 4u·D (plus O(u²)) of
// that, D = |dci| + |dcj| + |db|: the three differences, two products and
// two adds each round once, and |K| ≤ 1. Adding t to f[k] rounds by at
// most u·|f[k] + t| ≤ u·(|F′[k]| + the bound so far), and |F′[k]| ≤ |b| +
// Σ|α|. So drift grows by 5u·D + u·(|b| + Σ|α| + sumMax + drift). The
// factor 1 + 2⁻²⁰ covers the rounding of that arithmetic and of alphaSum,
// a float sum of nonnegative terms, for fewer than 2³⁰ terms; 1 + 4u covers
// the rounding of drift's own sum.
//
// An ordered sum of the m active terms, m of them rounded products, is
// within γₘ₊₁·(|b| + Σ|coefₜ·Kₜ|) ≤ γₘ₊₁·(|b| + Σ|α|) of F, where γₖ =
// k·u/(1 − k·u) (Higham, Accuracy and Stability of Numerical Algorithms,
// §3.1; a fused multiply-add only removes roundings). sumErr is twice that,
// the factor covering its own arithmetic.
func (e *estimate) step(ri, rj []float64, dci, dcj, db, b, alphaSum float64, m int) {
	mag := math.Abs(b) + alphaSum
	d := (5*unit*(math.Abs(dci)+math.Abs(dcj)+math.Abs(db))+unit*(mag+e.sumMax+e.drift))*(1+0x1p-20) + underflow
	e.drift = (e.drift + d) * (1 + 4*unit)
	g := float64(m+1) * unit
	e.sumErr = 2*g/(1-g)*mag + underflow
	e.sumMax = max(e.sumMax, e.sumErr)

	f := e.f
	ri, rj = ri[:len(f)], rj[:len(f)]
	for k := range f {
		f[k] += dci*ri[k] + dcj*rj[k] + db
	}
}
