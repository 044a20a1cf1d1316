// Command perfbench is the repository's benchmark: three seeded workloads
// driven through the program's public API, each printing its end-to-end
// metrics (untraced run) or per-layer metrics (traced run) and failing when
// a correctness gate fails.
//
//	go run . --workload figures|serve|serve-durable|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}.
// See README.md for what each workload stresses and bypasses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run (see README.md for each workload's reading).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"ontime_frac", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics. A workload that bypasses a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"experiment.busy_frac", "ratio"},
	{"sim.trial_ms_p50", "ms"},
	{"sim.trial_ms_p99", "ms"},
	{"sim.self_s", "s"},
	{"sched.filter_rob_s", "s"},
	{"sched.filter_en_s", "s"},
	{"sched.choose_s", "s"},
	{"alloc_mb_per_trial", "MiB"},
	{"sched.decisions", "count"},
	{"sched.candidates", "count"},
	{"robustness.rho_evals", "count"},
	{"robustness.freetime_hit_ratio", "ratio"},
	{"pmf.grid_convs", "count"},
	{"pmf.fft_convs", "count"},
	{"sim.events", "count"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.capacity_rps", "1/s"},
	{"client.send_lag_ms_p99", "ms"},
	{"http.handler_ms_p50", "ms"},
	{"http.handler_ms_p99", "ms"},
	{"http.other_us_mean", "us"},
	{"server.queue_wait_us_mean", "us"},
	{"server.decide_us_mean", "us"},
	{"server.decide_other_us_mean", "us"},
	{"server.queue_depth_max", "count"},
	{"sched.filter_rob_us_per_decision", "us"},
	{"sched.filter_en_us_per_decision", "us"},
	{"sched.choose_us_per_decision", "us"},
	{"server.shed_frac", "ratio"},
	{"energy.consumed_frac", "ratio"},
	{"wal.records_per_admit", "count"},
	{"wal.commit_calls_per_admit", "count"},
	{"wal.bytes_per_admit", "B"},
	{"router.place_us_mean", "us"},
	{"router.failovers", "count"},
	{"server.checkpoint_ms", "ms"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads are the runnable workloads. BENCHMARK.json gates figures and
// serve; serve-durable's answer rate follows the shared disk too closely to
// carry a bound (see README.md), so it runs by hand, and serve's traced run
// measures its WAL, checkpoint and router layers.
var workloads = []string{"figures", "serve", "serve-durable"}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// report is one workload's outcome.
type report struct {
	workload  string
	errs      []error // failed correctness gates
	attempted int
	failed    int
	e2e       map[string]float64 // untraced end-to-end metrics
	tracedE2E map[string]float64 // the same metrics from the traced run
	layer     map[string]float64 // per-layer metrics (traced run)
	notes     []string           // human-readable detail lines
}

func newReport(name string) *report {
	return &report{workload: name, e2e: map[string]float64{}, tracedE2E: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) gate(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Spans, per-layer tables and WAL files stay under .bench_build in the
	// working directory, next to the build.
	o := options{outDir: filepath.Join(".bench_build", "perfbench")}
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "figures, serve, serve-durable, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase")
	fs.IntVar(&traceN, "trace", 0, "1 runs the traced pass too and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceN == 1
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := fingerprint(o.outDir)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)

	var reps []*report
	for _, name := range names {
		rep, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, rep, o)
		if o.trace {
			if err := writeLayerTable(rep, o, host); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		reps = append(reps, rep)
	}
	res := summarize(reps, o, len(names) > 1)
	for _, rep := range reps {
		for _, err := range rep.errs {
			fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %v\n", rep.workload, err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(name string, o options) (*report, error) {
	switch name {
	case "figures":
		return figuresReport(o)
	case "serve":
		return serveReport(serveWorkload, o)
	case "serve-durable":
		return serveReport(serveDurableWorkload, o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize builds the final JSON line: end-to-end metrics for an
// untraced invocation, per-layer metrics for a traced one. With several
// workloads every name is prefixed with its workload.
func summarize(reps []*report, o options, prefix bool) jsonResult {
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rep := range reps {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if len(rep.errs) > 0 {
			res.Correct = false
		}
		defs, vals := endToEnd, rep.e2e
		if o.trace {
			defs, vals = perLayer, rep.layer
		}
		for _, d := range defs {
			name := d.name
			if prefix {
				name = rep.workload + "." + name
			}
			res.Metrics[name] = jsonMetric{Value: jsonNumber(vals[d.name]), Unit: d.unit}
		}
	}
	return res
}

// jsonNumber makes v representable in JSON: a latency percentile that
// lands on a failed request is +Inf and becomes the largest float.
func jsonNumber(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func printReport(w io.Writer, rep *report, o options) {
	fmt.Fprintf(w, "== %s (seed %d, %gs) ==\n", rep.workload, o.seed, o.seconds)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  %-34s %14s %14s  %s\n", "end-to-end", "untraced", "traced", "unit")
	for _, d := range endToEnd {
		tr := "-"
		if o.trace {
			tr = fmt.Sprintf("%.6g", rep.tracedE2E[d.name])
		}
		fmt.Fprintf(w, "  %-34s %14.6g %14s  %s\n", d.name, rep.e2e[d.name], tr, d.unit)
	}
	if o.trace {
		fmt.Fprintf(w, "  %-34s %14s  %s\n", "per-layer", "traced", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g  %s\n", d.name, rep.layer[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "  requests/trials attempted %d, failed %d, correctness gates failed %d\n", rep.attempted, rep.failed, len(rep.errs))
}

// writeLayerTable writes the traced run's per-layer table next to its
// spans.
func writeLayerTable(rep *report, o options, host hostInfo) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-layers.json", rep.workload, o.seed))
	clean := func(m map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = jsonNumber(v)
		}
		return out
	}
	doc := map[string]any{
		"workload": rep.workload, "seed": o.seed, "seconds": o.seconds, "host": host,
		"end_to_end_untraced": clean(rep.e2e), "end_to_end_traced": clean(rep.tracedE2E), "per_layer": clean(rep.layer),
		"notes": rep.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
