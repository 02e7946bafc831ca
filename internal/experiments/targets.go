package experiments

import (
	"fmt"
	"strings"

	"adwars/internal/abp"
)

// Summary gathers the headline metrics of one full experiment run.
type Summary struct {
	// §3 list statistics.
	AAKRulesFinal, EasyListAARulesFinal, AWRLRulesFinal int
	AAKDomains, CELDomains, Overlap                     int
	AAKExcRatio, CELExcRatio                            float64
	CELFirst, AAKFirst                                  int

	// §4 retrospective coverage.
	MissingFirst, MissingLast int
	Fig6aAAK, Fig6aCEL        int
	Fig6bAAK, Fig6bCEL        int

	// §4.3 live coverage.
	LiveAAK, LiveCEL         int
	LiveHTMLAAK, LiveHTMLCEL int
	LiveThirdPartyAAK        float64

	// Figure 7.
	Fig7CEL100, Fig7AAK100 float64
	Fig7CEL0, Fig7AAK0     float64

	// §5 classifier.
	CorpusPositives int
	BestTP, BestFP  float64
	LiveModelTPRate float64
}

// Collect assembles a Summary from experiment results (any of which may be
// nil, leaving the corresponding fields zero).
func (l *Lab) Collect(retro *RetroResult, live *LiveResult, fig7 *Fig7Result, rows []Table3Row, liveTest *LiveTestResult) Summary {
	var s Summary
	if rev, ok := l.Lists.AAK.At(l.World.Cfg.End); ok {
		s.AAKRulesFinal = countRules(rev.Rules)
	}
	if rev, ok := l.Lists.EasyListAA.At(l.World.Cfg.End); ok {
		s.EasyListAARulesFinal = countRules(rev.Rules)
	}
	if rev, ok := l.Lists.AWRL.At(l.World.Cfg.End); ok {
		s.AWRLRulesFinal = countRules(rev.Rules)
	}
	o := l.Overlap()
	s.AAKDomains, s.CELDomains, s.Overlap = o.AAKDomains, o.CELDomains, o.Overlap
	s.AAKExcRatio, s.CELExcRatio = o.AAKExceptionRatio, o.CELExceptionRatio
	f3 := l.Fig3()
	s.CELFirst, s.AAKFirst = f3.CELFirst, f3.AAKFirst

	if retro != nil && len(retro.Months) > 0 {
		first, last := retro.Months[0], retro.Months[len(retro.Months)-1]
		s.MissingFirst = first.NotArchived + first.Outdated + first.Partial
		s.MissingLast = last.NotArchived + last.Outdated + last.Partial
		s.Fig6aAAK = last.HTTPTriggered["Anti-Adblock Killer"]
		s.Fig6aCEL = last.HTTPTriggered["Combined EasyList"]
		s.Fig6bAAK = last.HTMLTriggered["Anti-Adblock Killer"]
		s.Fig6bCEL = last.HTMLTriggered["Combined EasyList"]
		s.CorpusPositives = len(retro.CorpusPos)
	}
	if live != nil {
		s.LiveAAK = live.HTTPTriggered["Anti-Adblock Killer"]
		s.LiveCEL = live.HTTPTriggered["Combined EasyList"]
		s.LiveHTMLAAK = live.HTMLTriggered["Anti-Adblock Killer"]
		s.LiveHTMLCEL = live.HTMLTriggered["Combined EasyList"]
		s.LiveThirdPartyAAK = live.ThirdPartyShare["Anti-Adblock Killer"]
	}
	if fig7 != nil {
		if c := fig7.CDFs["Combined EasyList"]; c != nil {
			s.Fig7CEL0, s.Fig7CEL100 = c.At(0), c.At(100)
		}
		if c := fig7.CDFs["Anti-Adblock Killer"]; c != nil {
			s.Fig7AAK0, s.Fig7AAK100 = c.At(0), c.At(100)
		}
	}
	if len(rows) > 0 {
		best := BestRow(rows)
		s.BestTP, s.BestFP = best.TPRate, best.FPRate
	}
	if liveTest != nil {
		s.LiveModelTPRate = liveTest.TPRate
	}
	return s
}

func countRules(rules []*abp.Rule) int {
	n := 0
	for _, r := range rules {
		if r.Kind != abp.KindComment && r.Kind != abp.KindInvalid {
			n++
		}
	}
	return n
}

// ComparisonRow is one paper-vs-measured line.
type ComparisonRow struct {
	Artifact string
	Metric   string
	Paper    float64
	Measured float64
}

// ratio returns measured/paper ("shape factor"); 1.0 is a perfect match.
func (r ComparisonRow) ratio() float64 {
	if r.Paper == 0 {
		return 0
	}
	return r.Measured / r.Paper
}

// PaperComparison lines a run's summary up against the numbers the paper
// reports. scale rescales count-valued paper targets for scaled worlds
// (rates and ratios are scale-free).
func PaperComparison(s Summary, scale float64) []ComparisonRow {
	c := func(artifact, metric string, paper, measured float64) ComparisonRow {
		return ComparisonRow{Artifact: artifact, Metric: metric, Paper: paper, Measured: measured}
	}
	k := scale
	return []ComparisonRow{
		c("Fig 1a", "AAK rules (Jul 2016)", 1811*k, float64(s.AAKRulesFinal)),
		c("Fig 1b", "AWRL rules (Jul 2016)", 167*k, float64(s.AWRLRulesFinal)),
		c("Fig 1c", "EasyList-AA rules (Jul 2016)", 1317*k, float64(s.EasyListAARulesFinal)),
		c("§3.3", "AAK listed domains", 1415*k, float64(s.AAKDomains)),
		c("§3.3", "CEL listed domains", 1394*k, float64(s.CELDomains)),
		c("§3.3", "shared domains", 282*k, float64(s.Overlap)),
		c("§3.3", "AAK exception ratio", 1.0, s.AAKExcRatio),
		c("§3.3", "CEL exception ratio", 4.0, s.CELExcRatio),
		c("Fig 3", "shared domains first in CEL", 185*k, float64(s.CELFirst)),
		c("Fig 3", "shared domains first in AAK", 92*k, float64(s.AAKFirst)),
		c("Fig 5", "missing snapshots (Aug 2011)", 1524*k, float64(s.MissingFirst)),
		c("Fig 5", "missing snapshots (Jul 2016)", 984*k, float64(s.MissingLast)),
		c("Fig 6a", "AAK HTTP-triggered sites (Jul 2016)", 331*k, float64(s.Fig6aAAK)),
		c("Fig 6a", "CEL HTTP-triggered sites (Jul 2016)", 16*k, float64(s.Fig6aCEL)),
		c("Fig 6b", "AAK HTML-triggered sites (≤5)", 5*k, float64(s.Fig6bAAK)),
		c("Fig 6b", "CEL HTML-triggered sites (≤4)", 4*k, float64(s.Fig6bCEL)),
		c("Fig 7", "CEL CDF at 100 days", 0.82, s.Fig7CEL100),
		c("Fig 7", "AAK CDF at 100 days", 0.32, s.Fig7AAK100),
		c("Fig 7", "CEL CDF at 0 days", 0.42, s.Fig7CEL0),
		c("Fig 7", "AAK CDF at 0 days", 0.23, s.Fig7AAK0),
		c("§4.3", "AAK live HTTP-triggered", 4931*k, float64(s.LiveAAK)),
		c("§4.3", "CEL live HTTP-triggered", 182*k, float64(s.LiveCEL)),
		c("§4.3", "AAK live HTML-triggered", 11*k, float64(s.LiveHTMLAAK)),
		c("§4.3", "CEL live HTML-triggered", 15*k, float64(s.LiveHTMLCEL)),
		c("§4.3", "AAK third-party share", 0.97, s.LiveThirdPartyAAK),
		c("§5", "corpus positives", 372*k, float64(s.CorpusPositives)),
		c("Table 3", "best TP rate", 0.997, s.BestTP),
		c("Table 3", "best FP rate", 0.032, s.BestFP),
		c("§5", "live model TP rate", 0.925, s.LiveModelTPRate),
	}
}

// RenderComparison prints the paper-vs-measured table.
func RenderComparison(rows []ComparisonRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-38s %10s %10s %7s\n",
		"artifact", "metric", "paper", "measured", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-38s %10.2f %10.2f %6.2fx\n",
			r.Artifact, r.Metric, r.Paper, r.Measured, r.ratio())
	}
	return b.String()
}
