package analytics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report is a serving run's coverage dashboard built from spill rows or a
// live snapshot: the online counterpart of the retrospective replay
// figures — top firing rules, per-domain block rates, and the verdict mix
// over time.
type Report struct {
	From, To   time.Time
	BucketDurS int
	Decisions  uint64

	// Timeline is the per-bucket verdict mix, oldest first.
	Timeline []TimelineBucket
	// Rules ranks firing rules by hit count (match events with a rule).
	Rules []RuleCount
	// Domains ranks domains by traffic with their block rates.
	Domains []DomainRate
	// Classify sums classification verdicts across the run.
	ClassifyAntiAdblock uint64
	ClassifyBenign      uint64
	// OverflowEvents counts decisions folded into bucket overflow rows
	// (key-cap evictions) — attributed in time but not by key.
	OverflowEvents uint64
}

// TimelineBucket is one bucket of the verdict-mix timeline.
type TimelineBucket struct {
	Start   time.Time
	Blocked uint64
	Allowed uint64
	NoMatch uint64
	Total   uint64
}

// RuleCount is one entry of the top-firing-rules ranking.
type RuleCount struct {
	Rule    string
	Ordinal int32
	Hits    uint64
}

// DomainRate is one domain's verdict profile.
type DomainRate struct {
	Domain  string
	Total   uint64
	Blocked uint64
}

// BuildReport folds rows (from ReadSpillDir or a Snapshot's buckets) into
// a Report. Rows may arrive in any order and may repeat a bucket (spill +
// live snapshot of the same run); counts add.
func BuildReport(rows []Row) *Report {
	rep := &Report{}
	timeline := make(map[int64]*TimelineBucket)
	rules := make(map[string]*RuleCount)
	domains := make(map[string]*DomainRate)
	for _, row := range rows {
		if rep.BucketDurS == 0 {
			rep.BucketDurS = row.DurS
		}
		if rep.From.IsZero() || row.Bucket.Before(rep.From) {
			rep.From = row.Bucket
		}
		if end := row.Bucket.Add(time.Duration(row.DurS) * time.Second); end.After(rep.To) {
			rep.To = end
		}
		rep.Decisions += row.Count
		if row.Overflow {
			rep.OverflowEvents += row.Count
		}
		switch row.Kind {
		case KindClassify.String():
			if row.Verdict == VerdictAntiAdblock.String() {
				rep.ClassifyAntiAdblock += row.Count
			} else {
				rep.ClassifyBenign += row.Count
			}
			continue
		}
		key := row.Bucket.UnixNano()
		tb := timeline[key]
		if tb == nil {
			tb = &TimelineBucket{Start: row.Bucket}
			timeline[key] = tb
		}
		tb.Total += row.Count
		if row.Overflow {
			// Overflow folds lost their verdict attribution; they count
			// toward the bucket's volume only.
			continue
		}
		switch row.Verdict {
		case VerdictBlocked.String():
			tb.Blocked += row.Count
		case VerdictAllowed.String():
			tb.Allowed += row.Count
		default:
			tb.NoMatch += row.Count
		}
		if row.Rule != "" {
			rc := rules[row.Rule]
			if rc == nil {
				rc = &RuleCount{Rule: row.Rule, Ordinal: row.Ordinal}
				rules[row.Rule] = rc
			}
			rc.Hits += row.Count
		}
		if row.Domain != "" {
			dr := domains[row.Domain]
			if dr == nil {
				dr = &DomainRate{Domain: row.Domain}
				domains[row.Domain] = dr
			}
			dr.Total += row.Count
			if row.Verdict == VerdictBlocked.String() {
				dr.Blocked += row.Count
			}
		}
	}
	for _, tb := range timeline {
		rep.Timeline = append(rep.Timeline, *tb)
	}
	sort.Slice(rep.Timeline, func(i, j int) bool { return rep.Timeline[i].Start.Before(rep.Timeline[j].Start) })
	for _, rc := range rules {
		rep.Rules = append(rep.Rules, *rc)
	}
	sort.Slice(rep.Rules, func(i, j int) bool {
		if rep.Rules[i].Hits != rep.Rules[j].Hits {
			return rep.Rules[i].Hits > rep.Rules[j].Hits
		}
		return rep.Rules[i].Rule < rep.Rules[j].Rule
	})
	for _, dr := range domains {
		rep.Domains = append(rep.Domains, *dr)
	}
	sort.Slice(rep.Domains, func(i, j int) bool {
		if rep.Domains[i].Total != rep.Domains[j].Total {
			return rep.Domains[i].Total > rep.Domains[j].Total
		}
		return rep.Domains[i].Domain < rep.Domains[j].Domain
	})
	return rep
}

// RowsFromSnapshot flattens a live snapshot's in-memory buckets into the
// same row stream a spill file carries.
func RowsFromSnapshot(snap *Snapshot) []Row {
	var rows []Row
	for _, b := range snap.Buckets {
		rows = append(rows, b.Rows...)
	}
	return rows
}

// bar renders an n-cell proportion bar.
func bar(frac float64, cells int) string {
	frac = max(0, min(frac, 1))
	full := int(frac*float64(cells) + 0.5)
	return strings.Repeat("#", full) + strings.Repeat(".", cells-full)
}

// Render formats the dashboard: verdict mix over time, top firing rules,
// and per-domain block rates — the serving-run analog of the
// retrospective coverage figures. topK bounds the rule and domain tables
// (0 = 10).
func (rep *Report) Render(topK int) string {
	if topK <= 0 {
		topK = 10
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "live serving analytics — %d decisions, %s → %s (%ds buckets)\n",
		rep.Decisions, rep.From.Format("15:04:05"), rep.To.Format("15:04:05"), rep.BucketDurS)
	if rep.OverflowEvents > 0 {
		fmt.Fprintf(&sb, "  (%d decisions in overflow rows: bucket key cap hit)\n", rep.OverflowEvents)
	}

	sb.WriteString("\nverdict mix over time (# = blocked share of match traffic)\n")
	for _, tb := range rep.Timeline {
		frac := 0.0
		if tb.Total > 0 {
			frac = float64(tb.Blocked) / float64(tb.Total)
		}
		fmt.Fprintf(&sb, "  %s |%s| blocked %5.1f%%  allowed %d  no-match %d  (n=%d)\n",
			tb.Start.Format("15:04:05"), bar(frac, 20), 100*frac, tb.Allowed, tb.NoMatch, tb.Total)
	}

	sb.WriteString("\ntop firing rules\n")
	n := min(topK, len(rep.Rules))
	var ruleHits uint64
	for _, rc := range rep.Rules {
		ruleHits += rc.Hits
	}
	for i := 0; i < n; i++ {
		rc := rep.Rules[i]
		pct := 0.0
		if ruleHits > 0 {
			pct = 100 * float64(rc.Hits) / float64(ruleHits)
		}
		fmt.Fprintf(&sb, "  %2d. %-48s %8d hits (%5.1f%%)\n", i+1, trim(rc.Rule, 48), rc.Hits, pct)
	}
	if len(rep.Rules) == 0 {
		sb.WriteString("  (no rules fired)\n")
	}

	sb.WriteString("\nper-domain block rates (by traffic)\n")
	n = min(topK, len(rep.Domains))
	for i := 0; i < n; i++ {
		dr := rep.Domains[i]
		frac := 0.0
		if dr.Total > 0 {
			frac = float64(dr.Blocked) / float64(dr.Total)
		}
		fmt.Fprintf(&sb, "  %-32s |%s| %5.1f%% blocked (%d/%d)\n",
			trim(dr.Domain, 32), bar(frac, 20), 100*frac, dr.Blocked, dr.Total)
	}
	if len(rep.Domains) == 0 {
		sb.WriteString("  (no attributed domains)\n")
	}

	if rep.ClassifyAntiAdblock+rep.ClassifyBenign > 0 {
		total := rep.ClassifyAntiAdblock + rep.ClassifyBenign
		fmt.Fprintf(&sb, "\nclassify verdicts: anti-adblock %d (%.1f%%), benign %d\n",
			rep.ClassifyAntiAdblock, 100*float64(rep.ClassifyAntiAdblock)/float64(total), rep.ClassifyBenign)
	}
	return sb.String()
}

// trim shortens s to max runes with an ellipsis, cutting on a rune
// boundary: a client-supplied domain or rule may be any UTF-8.
func trim(s string, max int) string {
	r := []rune(s)
	if len(r) <= max {
		return s
	}
	if max <= 3 {
		return string(r[:max])
	}
	return string(r[:max-3]) + "..."
}
