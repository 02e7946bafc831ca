package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeEnv shrinks every workload to a fraction of a second: a 2 k-rule
// stand-in for the 70 k list, a fortieth of paper scale for the lab, one
// set-up.
func smokeEnv(t *testing.T, trace bool) env {
	return env{
		Seed: 1, Seconds: 0.3, Warmup: 0.05, Trace: trace, WorkDir: t.TempDir(), Setups: 1,
		EasyRules: 2000, TierWarmup: 2000, LabScale: 40, LayerBudget: 10 * time.Millisecond,
	}
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readContract reads BENCHMARK.json and refuses a key the contract does
// not have.
func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the program name the same workloads and metrics.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v vs %s", i, w, workloads[i].name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.metricDef != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, endToEnd[i])
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, perLayer[i])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// settle waits for goroutines started by a workload to exit and returns
// how many are left.
func settle(baseline int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// Every workload, both modes: the run is correct, every metric the
// contract names comes out exactly once with a finite value and its unit,
// the driver's line is the last line and has exactly the four keys, and
// no goroutine outlives the run.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, w := range workloads {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				var out bytes.Buffer
				res, err := runOne(context.Background(), w, smokeEnv(t, trace), &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d invalid=%v notes=%v",
						res.Correct, res.Attempted, res.Failed, res.Invalid, res.Notes)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, the contract names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !nameRE.MatchString(d.Name):
						t.Errorf("%s: not a metric name", d.Name)
					case !ok:
						t.Errorf("%s: not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v", d.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("%s: end-to-end metric reads %v", d.Name, m.Value)
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := last[k]; !ok {
						t.Errorf("last line lacks %q", k)
					}
				}
				if len(last) != 4 {
					t.Errorf("last line has %d keys, want 4", len(last))
				}
				if after := settle(before); after > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}

// A benchmark that cannot fail checks nothing: with one expectation
// corrupted, each kind of workload reports failures and the command exits
// non-zero.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	for _, name := range []string{"match_paper", "gateway_match_paper", "snapshot_cycle", "paper_pipeline"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			e := smokeEnv(t, false)
			e.Sabotage = true
			res, err := runOne(context.Background(), w, e, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d of %d: the sabotage went unnoticed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	code := mainCode([]string{"-workload", "match_paper", "-seconds", "0.3", "-sabotage", "-workdir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 with a sabotaged expectation\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("the driver's line does not say correct=false:\n%s", stdout.String())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{101, 100, 100, 99, 103}, "same"},
		{"worse", []float64{120, 121, 119, 122, 120}, "worse"},
		{"better", []float64{80, 81, 79, 80, 82}, "better"},
		{"unresolved", []float64{70, 140, 95, 100, 160}, "unresolved"},
	} {
		if got := verdict(steady, tc.b, false, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
