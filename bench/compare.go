package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// doc is what -out writes and -compare reads: every result of one
// invocation, several per workload after -repeat.
type doc struct {
	Results []*result `json:"results"`
}

func writeDoc(path string, all []*result) error {
	data, err := json.MarshalIndent(doc{all}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDoc(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// series collects, per workload and metric, the values of every run in
// results, in run order.
func series(results []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range results {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printRepeat is the noise report of -repeat: per workload × end-to-end
// metric the smallest, median and largest value over the runs and the
// quartile spread the driver judges steadiness by.
func printRepeat(out io.Writer, all []*result) {
	s := series(all)
	fmt.Fprintf(out, "\n%-20s %-15s %12s %12s %12s %7s  %s\n", "workload", "metric", "min", "median", "max", "spread", "unit")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := sorted(s[w.name][d.Name])
			if len(xs) == 0 {
				continue
			}
			fmt.Fprintf(out, "%-20s %-15s %12.5g %12.5g %12.5g %7.3f  %s\n",
				w.name, d.Name, xs[0], median(xs), xs[len(xs)-1], quartileSpread(xs), d.Unit)
		}
	}
}

// spec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges B against A for one workload × metric by the
// choosing-metrics rule: worse when B's median is worse than A's by more
// than the bound, better when it is better by more than A's own quartile
// spread — but unresolved when the runs' spread exceeds the bound and the
// two sides overlap, because then the difference cannot be told from noise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	gain := (mb - ma) / ma // > 0: B is better
	if !higherIsBetter {
		gain = -gain
	}
	sa, sb := sorted(a), sorted(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	noise := max(quartileSpread(a), quartileSpread(b))
	switch {
	case noise > bound && overlap:
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > noise && !overlap:
		return "better"
	default:
		return "same"
	}
}

func compareDocs(out io.Writer, pathA, pathB string) error {
	const specPath = "BENCHMARK.json" // the binary runs from the repository root
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	sa, sb := series(a.Results), series(b.Results)
	fmt.Fprintf(out, "%-20s %-15s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := sa[w.name][m.Name], sb[w.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(out, "%-20s %-15s %12.5g %12.5g %+7.1f%% %6.2f  %s\n",
				w.name, m.Name, median(xa), median(xb), 100*(median(xb)-median(xa))/median(xa),
				m.Bound, verdict(xa, xb, m.Better == "higher", m.Bound))
		}
	}
	return nil
}

// recordHistory appends the run to bench/history.jsonl, keyed by commit, so
// the trajectory of every metric survives the next run.
func recordHistory(all []*result) error {
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return fmt.Errorf("-record needs a git checkout: %w", err)
	}
	row, err := json.Marshal(struct {
		Commit  string    `json:"commit"`
		Time    time.Time `json:"time"`
		Results []*result `json:"results"`
	}{strings.TrimSpace(string(rev)), time.Now().UTC(), all})
	if err != nil {
		return err
	}
	f, err := os.OpenFile("bench/history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(row, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
