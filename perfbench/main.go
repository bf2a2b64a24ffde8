// Command perfbench is the repository's benchmark: it builds package
// query workloads from a seed, measures them end to end through the
// public surfaces (the paq SDK and paqld's HTTP API), attributes time
// to the program's layers in a separate traced run, and checks every
// answer it gets.
//
//	perfbench --workload paper|serve --seed N --seconds S --trace 0|1
//	perfbench --compare PARENT_DIR CHANGE_DIR
//
// A run prints a per-query table and every metric with its unit and
// sample count, writes the full record (environment stamp, per-query
// rows, metrics, the benchmark's spans) under --out, and prints one
// JSON object as its last line. It exits 1 when any correctness check
// fails and 2 on a usage or set-up error. See METRICS.md for what each
// workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// queryRow is the per-query record: one row per (dataset, query).
type queryRow struct {
	Dataset         string  `json:"dataset"`
	Query           string  `json:"query"`
	DirectMS        float64 `json:"direct_ms,omitempty"`
	SRMS            float64 `json:"sketchrefine_ms,omitempty"`
	Ratio           float64 `json:"ratio,omitempty"`
	Nodes           int     `json:"bb_nodes"`
	LPIterations    int     `json:"lp_iterations"`
	Truncated       int     `json:"truncated"`
	FalseInfeasible int     `json:"false_infeasible,omitempty"`
	Samples         int     `json:"samples"`
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	// problems lists failed correctness checks; any entry fails the run.
	problems []string
	// e2e are the end-to-end metrics BENCHMARK.json names.
	e2e map[string]metric
	// detail are the workload's own end-to-end figures (the paper's
	// per-method figures, serve's per-class latencies).
	detail map[string]metric
	// layers are the per-layer metrics (traced runs only).
	layers map[string]metric
	rows   []queryRow
	sizes  map[string]int
	// errors counts failed operations by operation and error.
	errors map[string]int
	rec    *recorder
}

func newOutcome(trace bool) *outcome {
	return &outcome{
		e2e:    make(map[string]metric),
		detail: make(map[string]metric),
		layers: make(map[string]metric),
		sizes:  make(map[string]int),
		errors: make(map[string]int),
		rec:    newRecorder(trace),
	}
}

// problem records a failed correctness check (bounded, so a systematic
// failure does not flood the output; the count is what fails the run).
func (o *outcome) problem(format string, args ...any) {
	const keep = 50
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == keep {
		o.problems = append(o.problems, "(further problems omitted)")
	}
}

// fail counts a failed operation and keeps its error, by operation, for
// the report.
func (o *outcome) fail(op, msg string) {
	o.failed++
	o.errors[op+": "+msg]++
}

// record is the results file of one run.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      map[string]any    `json:"env"`
	Sizes    map[string]int    `json:"sizes"`
	Correct  bool              `json:"correct"`
	Attempt  int               `json:"attempted"`
	Failed   int               `json:"failed"`
	Problems []string          `json:"problems,omitempty"`
	Errors   map[string]int    `json:"errors,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Detail   map[string]metric `json:"detail"`
	Layers   map[string]metric `json:"layers,omitempty"`
	Queries  []queryRow        `json:"queries"`
	Spans    any               `json:"spans,omitempty"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg runConfig) (*outcome, error){
	"paper": runPaper,
	"serve": runServe,
}

// runConfig is the command line of one run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every size for the smoke tests.
	tiny bool
	// dir is a scratch directory for durable state.
	dir string
	// refDir holds the committed paper references (reference.go).
	refDir string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper or serve")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass that yields the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the results records")
	compare := fs.Bool("compare", false, "compare two results directories: --compare PARENT CHANGE")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds (compare mode)")
	refDir := fs.String("reference", filepath.Join("perfbench", "reference"), "directory of the per-seed DIRECT references of the paper workload")
	writeRef := fs.Bool("write-reference", false, "paper: solve the seed's instance queries once with DIRECT and write its reference into --reference")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes a parent and a change results directory")
			return 2
		}
		if err := runCompare(os.Stdout, *benchFile, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper|serve, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*out, "state-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: scratch, refDir: *refDir}
	if *writeRef {
		if *name != "paper" {
			fmt.Fprintln(os.Stderr, "perfbench: --write-reference is for the paper workload")
			return 2
		}
		path, err := writePaperReference(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println("wrote", path)
		return 0
	}
	o, err := runner(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.e2e["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB", Samples: 1}
	rec := o.record(*name, cfg)
	printReport(os.Stdout, rec)
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(resultLine(rec))
	if !rec.Correct {
		return 1
	}
	return 0
}

func (o *outcome) record(name string, cfg runConfig) *record {
	rec := &record{
		Workload: name,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Env:      envStamp(),
		Sizes:    o.sizes,
		Correct:  len(o.problems) == 0 && o.attempted > 0,
		Attempt:  o.attempted,
		Failed:   o.failed,
		Problems: o.problems,
		Errors:   o.errors,
		Metrics:  o.e2e,
		Detail:   o.detail,
		Queries:  o.rows,
	}
	if cfg.trace {
		rec.Layers = o.layers
		rec.Spans = o.rec.roots
	}
	for _, ms := range []map[string]metric{rec.Metrics, rec.Detail, rec.Layers} {
		for k, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				// JSON cannot carry it; a ratio over an empty base.
				m.Value, m.Note = 0, "not measured: "+m.Note
				ms[k] = m
			}
		}
	}
	return rec
}

// resultLine is the one-line JSON summary: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(rec *record) string {
	src := rec.Metrics
	if rec.Trace {
		src = rec.Layers
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(src))
	for k, m := range src {
		ms[k] = val{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rec.Correct, rec.Attempt, rec.Failed, ms})
	if err != nil {
		// record() removed the only values JSON cannot carry (NaN, ±Inf).
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, rec.Attempt, rec.Failed)
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// printReport prints the human-readable part of a run: per-query rows,
// then every metric with unit and sample count, then any failed check.
func printReport(w *os.File, rec *record) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v sizes=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Sizes)
	if len(rec.Queries) > 0 {
		fmt.Fprintf(w, "%-7s %-4s %11s %11s %8s %9s %10s %5s %5s %4s\n",
			"dataset", "qry", "direct_ms", "sr_ms", "ratio", "bb_nodes", "lp_iters", "trunc", "falseI", "n")
		for _, q := range rec.Queries {
			fmt.Fprintf(w, "%-7s %-4s %11.3f %11.3f %8.4f %9d %10d %5d %5d %4d\n",
				q.Dataset, q.Query, q.DirectMS, q.SRMS, q.Ratio, q.Nodes, q.LPIterations, q.Truncated, q.FalseInfeasible, q.Samples)
		}
	}
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := ms[k]
			note := ""
			if m.Note != "" {
				note = "  (" + m.Note + ")"
			}
			fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d%s\n", k, m.Value, m.Unit, m.Samples, note)
		}
	}
	section("end-to-end:", rec.Metrics)
	section("workload detail:", rec.Detail)
	section("per-layer:", rec.Layers)
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", rec.Attempt, rec.Failed, rec.Correct)
	errs := make([]string, 0, len(rec.Errors))
	for e := range rec.Errors {
		errs = append(errs, e)
	}
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "FAILED ×%d: %s\n", rec.Errors[e], e)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// deadline returns the time the measured phase ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// keyOf names a (dataset, query, method) operation.
func keyOf(ds, query, method string) string {
	return strings.Join([]string{ds, query, method}, "/")
}
