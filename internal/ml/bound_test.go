package ml

import (
	"math"
	"math/rand"
	"testing"
)

// randomGram is an n×n symmetric matrix with a unit diagonal and entries in
// (0, 1] as the RBF kernel gives them: exact duplicates (1), typical values
// and ones near underflow.
func randomGram(rng *rand.Rand, n int) *gram {
	g := &gram{n: n, full: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		g.full[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = 1
			case 1:
				v = math.Exp(-700 * rng.Float64())
			default:
				v = math.Exp(-0.05 * float64(rng.Intn(40)))
			}
			g.full[i*n+j], g.full[j*n+i] = v, v
		}
	}
	return g
}

// TestEstimateBracketsTheOrderedSum holds the solver's certificate to its
// claim apart from the solver: through thousands of rank-two updates of α
// and updates of b, drawn from every magnitude a solve produces — the 1e-8
// penalty floor, C·n, zero, and steps that only nudge — and with samples
// reset to their ordered sum at random, every sample's ordered sum
// (decision) lies in estimate.interval. Two regimes press the bound's two
// halves: large coefficients that cancel, whose ordered sums round by far
// more than one add, and a coefficient that creeps by just under half an
// ulp of its estimate per step, so that every update of the estimate
// rounds away in the same direction.
func TestEstimateBracketsTheOrderedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 48; trial++ {
		n := 2 + rng.Intn(30)
		creep := trial%4 == 0
		g := randomGram(rng, n)
		cn := 0.5 * float64(n) // C·n at the boosted rounds' C
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(1 - 2*rng.Intn(2))
		}
		y[0] = 1
		alpha, coef := make([]float64, n), make([]float64, n)
		var active []int32
		b := 0.0
		est := newEstimate(n)

		magnitude := func() float64 {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return 1e-8
			case 2:
				return cn
			case 3:
				return cn * rng.Float64()
			default:
				return math.Exp(math.Log(1e-8) + rng.Float64()*math.Log(cn/1e-8))
			}
		}
		steps := 3000
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(n-1)) % n
			if creep {
				i, j = 0, 1+rng.Intn(n-1)
			}
			ai, aj, bNew := alpha[i], alpha[j], b
			switch {
			case creep && step == 0:
				ai, bNew = 1e-8, 1
			case creep:
				// Sample 0's estimate sits just above 1, where half an
				// ulp is u: a change of 0.99u rounds away every time.
				ai += 0.99 * unit
			default:
				switch rng.Intn(4) {
				case 0: // nudge
					ai = alpha[i] * (1 + 1e-9*rng.NormFloat64())
					aj = alpha[j] * (1 + 1e-9*rng.NormFloat64())
				default:
					ai, aj = magnitude(), magnitude()
				}
				if rng.Intn(3) > 0 {
					bNew = (2*rng.Float64() - 1) * cn
				}
			}
			dci, dcj, db := ai*y[i]-coef[i], aj*y[j]-coef[j], bNew-b
			alpha[i], coef[i], alpha[j], coef[j], b = ai, ai*y[i], aj, aj*y[j], bNew
			active, alphaSum := active[:0], 0.0
			for k, a := range alpha {
				if a != 0 {
					active = append(active, int32(k))
					alphaSum += math.Abs(a)
				}
			}
			est.step(g.row(i), g.row(j), dci, dcj, db, b, alphaSum, len(active))

			for k := 0; k < n; k++ {
				v := decision(g, k, b, coef, active)
				if lo, hi := est.interval(k); !(lo <= v && v <= hi) {
					t.Fatalf("trial %d (creep %v), step %d: sample %d's ordered sum %v (%#x) outside [%v, %v]",
						trial, creep, step, k, v, math.Float64bits(v), lo, hi)
				}
				if !creep && rng.Intn(20) == 0 {
					est.reset(k, v)
				}
			}
		}
	}
}
