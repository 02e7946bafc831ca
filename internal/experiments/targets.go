package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"adwars/internal/abp"
)

// Results are what one report run measured beyond the lab's lists. The
// report sets every field; Table3 is empty when the corpus was too small to
// cross-validate, and its targets are then not measured.
type Results struct {
	Retro    *RetroResult
	Live     *LiveResult
	Fig7     *Fig7Result
	Table3   []Table3Row
	LiveTest *LiveTestResult
}

// Target is one number the paper reports and how a run is held to it.
type Target struct {
	ID, Quantity string
	Paper        float64
	// Scaled marks a count of the world's domains, rules, sites or scripts:
	// a world of a fraction s of the paper's is held to Paper × s.
	Scaled bool
	// Unit is "%" for a share printed as a percentage, "×" for a ratio.
	Unit string
	// Band bounds measured/paper where the run keeps the paper's shape.
	Band [2]float64
	// Measure reads the value off the lab and the run: NaN when the run has
	// not got it.
	Measure measure
}

type measure = func(*Lab, *Results) float64

// Bands of measured/paper.
var (
	twofold   = [2]float64{0.5, 2}   // the same size within a factor of two
	fourfold  = [2]float64{0.25, 4}  // within a factor of four: "≫" keeps its sense
	magnitude = [2]float64{0.1, 10}  // the same order of magnitude
	near      = [2]float64{0.9, 1.1} // within 10 %
	atMost    = [2]float64{0, 1}     // a bound the paper states: "within 0–5", FP
	every     = [2]float64{1, 1}     // no exception: "in every month"
)

// Targets are the paper's numbers, in the order the report prints them.
// Each paper value is written here once: a claim that relates two numbers
// is a row whose value is their ratio, and a claim about which of the two
// is larger is one whose band starts where that ratio crosses 1.
func Targets() []Target {
	var t []Target
	value := func(id, q, unit string, paper float64, b [2]float64, m measure) Target {
		t = append(t, Target{ID: id, Quantity: q, Paper: paper, Unit: unit, Band: b, Measure: m})
		return t[len(t)-1]
	}
	count := func(id, q string, paper float64, b [2]float64, m measure) Target {
		t = append(t, Target{ID: id, Quantity: q, Paper: paper, Scaled: true, Band: b, Measure: m})
		return t[len(t)-1]
	}
	ratio := func(id, q string, num, den Target, b [2]float64) {
		value(id, q, "×", num.Paper/den.Paper, b, func(l *Lab, r *Results) float64 { return num.Measure(l, r) / den.Measure(l, r) })
	}
	order := func(id, q string, num, den Target) {
		ratio(id, q, num, den, [2]float64{den.Paper / num.Paper, math.Inf(1)})
	}

	for _, f := range []struct {
		id, list                string
		h                       func(*Lab) *abp.History
		first, last, http, html float64
	}{
		{"F1a", "AAK", func(l *Lab) *abp.History { return l.Lists.AAK }, 353, 1811, 0.585, 0.415},
		{"F1b", "AWRL", func(l *Lab) *abp.History { return l.Lists.AWRL }, 4, 167, 0.323, 0.677},
		{"F1c", "EasyList-AA", func(l *Lab) *abp.History { return l.Lists.EasyListAA }, 67, 1317, 0.963, 0.037},
	} {
		fig1 := func(l *Lab) *Fig1Result { return Fig1(f.h(l), l.World.Cfg.End) }
		html := func(l *Lab, _ *Results) float64 {
			s := fig1(l).FinalShares()
			return s[abp.ClassHTMLNoDomain] + s[abp.ClassHTMLWithDomain]
		}
		first := count(f.id, f.list+" rules, first revision", f.first, magnitude, func(l *Lab, _ *Results) float64 { return float64(fig1(l).Points[0].Total) })
		last := count(f.id, f.list+" rules, Jul 2016", f.last, twofold, func(l *Lab, _ *Results) float64 { p := fig1(l).Points; return float64(p[len(p)-1].Total) })
		order(f.id, f.list+" growth, Jul 2016 ÷ first revision", last, first)
		value(f.id, f.list+" HTTP rule share, Jul 2016", "%", f.http, twofold, func(l *Lab, r *Results) float64 { return 1 - html(l, r) })
		value(f.id, f.list+" HTML rule share, Jul 2016", "%", f.html, twofold, html)
	}

	aakDomains := count("T1", "AAK listed domains", 1415, twofold, func(l *Lab, _ *Results) float64 { return float64(l.Overlap().AAKDomains) })
	celDomains := count("T1", "CEL listed domains", 1394, twofold, func(l *Lab, _ *Results) float64 { return float64(l.Overlap().CELDomains) })
	order("T1", "AAK ÷ CEL listed domains: AAK the larger", aakDomains, celDomains)
	count("X1", "domains on both lists", 282, twofold, func(l *Lab, _ *Results) float64 { return float64(l.Overlap().Overlap) })
	aakExc := value("X1", "AAK exception : non-exception domains", "", 1, twofold, func(l *Lab, _ *Results) float64 { return l.Overlap().AAKExceptionRatio })
	celExc := value("X1", "CEL exception : non-exception domains", "", 4, twofold, func(l *Lab, _ *Results) float64 { return l.Overlap().CELExceptionRatio })
	ratio("X1", "CEL ÷ AAK exception ratio: CEL ≫ AAK", celExc, aakExc, fourfold)

	celFirst := count("F3", "shared domains first in CEL", 185, twofold, func(l *Lab, _ *Results) float64 { return float64(l.Fig3().CELFirst) })
	aakFirst := count("F3", "shared domains first in AAK", 92, fourfold, func(l *Lab, _ *Results) float64 { return float64(l.Fig3().AAKFirst) })
	count("F3", "shared domains added the same day", 5, atMost, func(l *Lab, _ *Results) float64 { return float64(l.Fig3().SameDay) })
	order("F3", "first in CEL ÷ first in AAK: CEL first for most", celFirst, aakFirst)

	missing := func(m MonthCoverage) float64 { return float64(m.NotArchived + m.Outdated + m.Partial) }
	final := func(r *Results) MonthCoverage { return r.Retro.Months[len(r.Retro.Months)-1] }
	missFirst := count("F5", "missing snapshots of the top-5K, Aug 2011", 1524, twofold, func(_ *Lab, r *Results) float64 { return missing(r.Retro.Months[0]) })
	missLast := count("F5", "missing snapshots of the top-5K, Jul 2016", 984, twofold, func(_ *Lab, r *Results) float64 { return missing(final(r)) })
	order("F5", "Aug 2011 ÷ Jul 2016 missing: fewer by the end", missFirst, missLast)
	value("F5", "months with outdated > not archived > partial", "", 60, every, func(_ *Lab, r *Results) float64 {
		n := 0
		for _, m := range r.Retro.Months {
			if m.Outdated > m.NotArchived && m.NotArchived > m.Partial {
				n++
			}
		}
		return float64(n)
	})

	const aak, cel = "Anti-Adblock Killer", "Combined EasyList"
	mostHTML := func(list string) measure {
		return func(_ *Lab, r *Results) float64 {
			n := 0
			for _, m := range r.Retro.Months {
				n = max(n, m.HTMLTriggered[list])
			}
			return float64(n)
		}
	}
	aak6a := count("F6a", "sites triggering AAK HTTP rules, Jul 2016", 331, twofold, func(_ *Lab, r *Results) float64 { return float64(final(r).HTTPTriggered[aak]) })
	cel6a := count("F6a", "sites triggering CEL HTTP rules, Jul 2016", 16, twofold, func(_ *Lab, r *Results) float64 { return float64(final(r).HTTPTriggered[cel]) })
	ratio("F6a", "AAK ÷ CEL HTTP-triggered: AAK ≫ CEL", aak6a, cel6a, fourfold)
	count("F6b", "sites triggering AAK HTML rules, most in a month", 5, atMost, mostHTML(aak))
	count("F6b", "sites triggering CEL HTML rules, most in a month", 4, atMost, mostHTML(cel))

	cel100 := value("F7", "CEL detection delay CDF at 100 days", "", 0.82, twofold, func(_ *Lab, r *Results) float64 { return r.Fig7.CDFs[cel].At(100) })
	aak100 := value("F7", "AAK detection delay CDF at 100 days", "", 0.32, twofold, func(_ *Lab, r *Results) float64 { return r.Fig7.CDFs[aak].At(100) })
	order("F7", "CEL ÷ AAK at 100 days: CEL the more prompt", cel100, aak100)
	cel0 := value("F7", "CEL detection delay CDF at 0 days", "", 0.42, twofold, func(_ *Lab, r *Results) float64 { return r.Fig7.CDFs[cel].At(0) })
	aak0 := value("F7", "AAK detection delay CDF at 0 days", "", 0.23, twofold, func(_ *Lab, r *Results) float64 { return r.Fig7.CDFs[aak].At(0) })
	order("F7", "CEL ÷ AAK at 0 days: CEL's rules more often first", cel0, aak0)

	count("L1", "live top-100K sites reachable", 99396, near, func(_ *Lab, r *Results) float64 { return float64(r.Live.Reachable) })
	aakLive := count("L1", "live sites triggering AAK HTTP rules", 4931, twofold, func(_ *Lab, r *Results) float64 { return float64(r.Live.HTTPTriggered[aak]) })
	celLive := count("L1", "live sites triggering CEL HTTP rules", 182, twofold, func(_ *Lab, r *Results) float64 { return float64(r.Live.HTTPTriggered[cel]) })
	ratio("L1", "AAK ÷ CEL live HTTP-triggered: AAK ≫ CEL", aakLive, celLive, fourfold)
	count("L1", "live sites triggering AAK HTML rules", 11, fourfold, func(_ *Lab, r *Results) float64 { return float64(r.Live.HTMLTriggered[aak]) })
	count("L1", "live sites triggering CEL HTML rules", 15, fourfold, func(_ *Lab, r *Results) float64 { return float64(r.Live.HTMLTriggered[cel]) })
	value("L1", "AAK-matched live sites hit on third-party hosts", "%", 0.97, near, func(_ *Lab, r *Results) float64 { return r.Live.ThirdPartyShare[aak] })

	best := func(r *Results) Table3Row {
		if len(r.Table3) == 0 {
			return Table3Row{TPRate: math.NaN(), FPRate: math.NaN()}
		}
		return BestRow(r.Table3)
	}
	count("T3", "corpus positives", 372, twofold, func(_ *Lab, r *Results) float64 { return float64(len(r.Retro.CorpusPos)) })
	value("T3", "best configuration's TP rate", "%", 0.997, near, func(_ *Lab, r *Results) float64 { return best(r).TPRate })
	value("T3", "best configuration's FP rate", "%", 0.032, atMost, func(_ *Lab, r *Results) float64 { return best(r).FPRate })
	count("L2", "live anti-adblock scripts tested", 2701, twofold, func(_ *Lab, r *Results) float64 { return float64(r.LiveTest.Scripts) })
	value("L2", "live model TP rate", "%", 0.925, near, func(_ *Lab, r *Results) float64 { return r.LiveTest.TPRate })
	return t
}

// RenderTargets prints every target as a markdown table row with its
// verdict: ✓ the run keeps the paper's shape, ✗ it does not, — the run has
// not got the value. It is the table of EXPERIMENTS.md.
func RenderTargets(l *Lab, r *Results) string {
	var b strings.Builder
	b.WriteString("| ID | Quantity | Paper | Measured | Measured / paper | Band | Verdict |\n|---|---|---|---|---|---|---|\n")
	for _, t := range Targets() {
		paper, got := t.Paper, t.Measure(l, r)
		if t.Scaled {
			paper *= l.Scale()
		}
		verdict := "✗"
		switch ratio := got / paper; {
		case math.IsNaN(got):
			verdict = "—"
		case ratio >= t.Band[0] && ratio <= t.Band[1]:
			verdict = "✓"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s–%s | %s |\n", t.ID, t.Quantity, formatValue(paper, t.Unit),
			formatValue(got, t.Unit), formatValue(got/paper, ""), formatValue(t.Band[0], ""), formatValue(t.Band[1], ""), verdict)
	}
	return b.String()
}

// formatValue prints v to three significant digits, or whole from 1000 on,
// a "%" unit as a percentage, NaN (not measured) as "—".
func formatValue(v float64, unit string) string {
	prec := 3
	if unit == "%" {
		v, unit = 100*v, " %"
	}
	switch {
	case math.IsNaN(v):
		return "—"
	case math.IsInf(v, 1):
		return "∞"
	case math.Abs(v) >= 1000:
		v, prec = math.Round(v), -1
	}
	return strconv.FormatFloat(v, 'g', prec, 64) + unit
}
