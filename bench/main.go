// Command adwars-bench is the repository's one benchmark: six workloads over
// paper-scale and EasyList-scale filter lists, each following a request (or
// a list update, or a report run) through every layer it crosses. See
// README.md in this directory for the workloads, the metric glossary and
// the noise policy; BENCHMARK.json at the repository root names what a
// driver may rely on.
//
// A driver runs
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. By hand:
//
//	bash bench/run.sh -seed 1                  every workload, untraced
//	bash bench/run.sh -seed 1 -trace 1         the per-layer tables
//	bash bench/run.sh -repeat 5 -out a.json    five seeds, spreads
//	bash bench/run.sh -compare a.json b.json   verdict per workload × metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one measured value. Spread is the quartile spread of the
// set-ups or operations the value was taken over; it is printed for the
// reader and left out of the driver's JSON line.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Invalid   []string          `json:"invalid,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) setSpread(name string, value, spread float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Spread: spread}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) invalidate(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// env is what a workload is run with. The zero sizes are filled by
// defaults(); the smoke test shrinks them.
type env struct {
	Seed    int64
	Seconds float64 // timed window
	Warmup  float64 // untimed lead-in of the serving workloads
	Trace   bool
	WorkDir string // snapshot files and trace output go under here
	// Setups is how many times set-up is run at least, time permitting;
	// setup_s is the median.
	Setups int
	// EasyRules is the size of the EasyList-scale list and TierWarmup the
	// number of seed+1 requests whose firing rules form the hot tier.
	EasyRules, TierWarmup int
	// LabScale divides paper scale for the classify workload's lab (10 = a
	// tenth).
	LabScale int
	// TraceOut receives the spans as JSONL; empty means a file under WorkDir.
	TraceOut string
	// Sabotage corrupts one expectation, so tests can see the run fail.
	Sabotage bool
	// LayerBudget is how long each sequential layer probe of a traced run
	// loops.
	LayerBudget time.Duration
}

func (e *env) defaults() {
	if e.Seconds <= 0 {
		e.Seconds = 10
	}
	if e.Warmup <= 0 {
		e.Warmup = min(1, e.Seconds/5)
	}
	if e.Setups <= 0 {
		e.Setups = 3
	}
	if e.EasyRules <= 0 {
		e.EasyRules = easyRules
	}
	if e.TierWarmup <= 0 {
		e.TierWarmup = 20_000
	}
	if e.LabScale <= 0 {
		e.LabScale = 10
	}
	if e.LayerBudget <= 0 {
		e.LayerBudget = 400 * time.Millisecond
	}
}

// concurrency is the closed-loop client count, never more than the cores
// the servers share with the clients.
func concurrency() int { return min(runtime.GOMAXPROCS(0), 4) }

// workload is one entry of the suite. run returns a result whose Metrics
// hold the end-to-end metrics (untraced) or the per-layer ones (traced).
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*result, error)
}

var workloads = []workload{
	{"match_paper", runMatchPaper},
	{"match_easylist", runMatchEasylist},
	{"gateway_match_paper", runGatewayMatchPaper},
	{"snapshot_cycle", runSnapshotCycle},
	{"classify_scripts", runClassifyScripts},
	{"paper_pipeline", runPaperPipeline},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs a workload, fills in every metric the contract names for the
// mode (a layer the workload does not cross reads 0) and prints the result.
func runOne(ctx context.Context, w workload, e env, out io.Writer) (*result, error) {
	e.defaults()
	dir, err := os.MkdirTemp(e.WorkDir, "adwars-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.WorkDir = dir
	res, err := w.run(ctx, &e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.Seed, res.Trace = w.name, e.Seed, e.Trace
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0 && res.Attempted > 0
	if e.Trace {
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.set(m.Name, 0, m.Unit)
			}
		}
	}
	printResult(out, res)
	return res, nil
}

func printResult(out io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if m.Spread > 0 {
			fmt.Fprintf(out, "%s %s %.6g %s spread=%.3f\n", r.Workload, n, m.Value, m.Unit, m.Spread)
		} else {
			fmt.Fprintf(out, "%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "%s # %s\n", r.Workload, n)
	}
	for _, n := range r.Invalid {
		fmt.Fprintf(out, "%s INVALID %s\n", r.Workload, n)
	}
	failFrac := 0.0
	if r.Attempted > 0 {
		failFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "%s fail_frac %.6g ratio\n", r.Workload, failFrac)
	// The driver's line: exactly these four keys, values with all digits.
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]wire, len(r.Metrics))
	for n, m := range r.Metrics {
		ms[n] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // a NaN slipped into a metric: a benchmark bug
	}
	fmt.Fprintf(out, "%s\n", line)
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	var e env
	fs := flag.NewFlagSet("adwars-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all six)")
		trace   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
		outPath = fs.String("out", "", "also write every result as one JSON document to this file")
		repeat  = fs.Int("repeat", 1, "run the suite N times on seeds seed..seed+N-1 and print min/median/max/spread")
		compare = fs.Bool("compare", false, "compare two -out documents given as arguments, by the bounds in ./BENCHMARK.json")
		record  = fs.Bool("record", false, "append this run, keyed by git rev-parse HEAD, to bench/history.jsonl")
	)
	fs.Int64Var(&e.Seed, "seed", 1, "corpus seed: same seed, same inputs")
	fs.Float64Var(&e.Seconds, "seconds", 10, "timed window per workload, after warm-up")
	fs.StringVar(&e.WorkDir, "workdir", "", "directory for snapshot files and traces (default: the system temp dir)")
	fs.StringVar(&e.TraceOut, "trace-out", "", "write spans as JSONL here (default: under -workdir, removed afterwards)")
	fs.BoolVar(&e.Sabotage, "sabotage", false, "corrupt one expectation; the run must then fail (tests use this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e.Trace = *trace != 0

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		if err := compareDocs(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "adwars-bench:", err)
			return 1
		}
		return 0
	}

	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "adwars-bench: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var all []*result
	ok := true
	for i := 0; i < *repeat; i++ {
		for _, w := range run {
			ei := e
			ei.Seed = e.Seed + int64(i)
			started := time.Now()
			res, err := runOne(ctx, w, ei, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "adwars-bench:", err)
				return 1
			}
			fmt.Fprintf(stderr, "%s seed %d done in %.1fs\n", w.name, ei.Seed, time.Since(started).Seconds())
			ok = ok && res.Correct
			all = append(all, res)
		}
	}
	if *repeat > 1 {
		printRepeat(stdout, all)
	}
	if *outPath != "" {
		if err := writeDoc(*outPath, all); err != nil {
			fmt.Fprintln(stderr, "adwars-bench:", err)
			return 1
		}
	}
	if *record {
		if err := recordHistory(all); err != nil {
			fmt.Fprintln(stderr, "adwars-bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "adwars-bench: correctness check failed ("+strings.Join(failedNames(all), ", ")+")")
		return 1
	}
	return 0
}

func failedNames(all []*result) []string {
	var out []string
	for _, r := range all {
		if !r.Correct {
			out = append(out, r.Workload)
		}
	}
	return out
}
