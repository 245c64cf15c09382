// Command bench is the repository benchmark. One invocation runs one named
// workload end to end, checks its answers against exact oracles, and prints
// every metric by name and unit; the last line of standard output is a JSON
// summary:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write their spans to
// .bench_build/trace/<workload>.trace.json. --summarize prints each trace's
// self time by span and layer and the tracing overhead.
//
// Run it from the repository root through its build script, which keeps every
// build and run artifact under .bench_build/:
//
//	bash bench/run.sh --workload dense4-wsdl --seed 1 --seconds 40 --trace 0
//	bash bench/run.sh --workload fleet-wal-window --seed 2 --seconds 40 --trace 1
//	bash bench/run.sh --summarize
//
// The workloads, metrics, bounds and the A/B procedure are described in
// bench/README.md; BENCHMARK.json at the repository root lists them for the
// benchmark driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run, for every workload.
// The tail latencies (p90, p99) are printed in the run's notes but are not
// metrics: they do not repeat within a bound the benchmark may set on a
// shared host (see bench/README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_eps", "ev/s"},
	{"ingest_p50_ms", "ms"},
	{"estimate_p50_ms", "ms"},
	{"mre", "ratio"},
	{"heap_mb", "MB"},
}

// layerMetrics are reported by every traced run, for every workload; a
// layer the workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"core.ns_per_event", "ns/event"},
	{"core.busy_share", "ratio"},
	{"go.allocs_per_event", "count"},
	{"go.bytes_per_event", "B/event"},
	{"go.gc_cpu_fraction", "ratio"},
	{"pattern.instances_per_insert", "count"},
	{"reservoir.sampled_degree_mean", "count"},
	{"reservoir.occupancy", "ratio"},
	{"weights.calls_per_event", "count"},
	{"weights.ns_per_call", "ns/call"},
	{"weights.share_of_core", "ratio"},
	{"shard.busy_ratio_max", "ratio"},
	{"shard.skew", "ratio"},
	{"shard.submit_wait_ratio", "ratio"},
	{"shard.apply_lag_events", "events"},
	{"stream.wire_bytes_per_event", "B/event"},
	{"serve.ingest_share_p50", "ratio"},
	{"serve.ingest_share_p99", "ratio"},
	{"serve.estimate_share_p50", "ratio"},
	{"serve.busy_ratio", "ratio"},
	{"cluster.ingest_self_share_p50", "ratio"},
	{"cluster.ingest_self_share_p99", "ratio"},
	{"cluster.estimate_self_share_p50", "ratio"},
	{"cluster.fanout_skew_share_p99", "ratio"},
	{"cluster.worker_errors", "count"},
	{"wal.bytes_per_event", "B/event"},
	{"wal.frames_per_request", "count"},
	{"http.transport_share_p50", "ratio"},
	{"loadgen.queued_ratio", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
}

// withUnits attaches units to the values of defs; names missing from values
// report 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// traceDir receives each run's trace or result file, under the directory
// bench/run.sh builds in.
const traceDir = ".bench_build/trace"

// options are the settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// pin is the expected identity of the workload's inputs.
	pin pin
	// workDir holds the run's temporary directories (write-ahead logs).
	workDir string
	// cacheDir keeps the batch workloads' checked inputs between runs of
	// one executable; empty disables the cache.
	cacheDir string
}

// result is the outcome of one run.
type result struct {
	correct           bool
	attempted, failed int64
	endToEnd          map[string]float64
	layers            map[string]float64 // traced runs only
	spans             []span
	dropped           int64
	// notes are human-readable lines printed before the metrics: sample
	// counts, the checks that ran, and the trace's coverage checks.
	notes []string
	// fixed are the estimates a run computes under pinned seeds (the batch
	// panel, the served warm-up read); traced and untraced runs must agree
	// on them bit for bit.
	fixed []float64
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run measures one workload.
func run(w workload, opt options) (*result, error) {
	if w.batch != nil {
		return runBatch(w, opt)
	}
	return runServed(w, opt)
}

func main() {
	name := flag.String("workload", "", "workload to run: dense4-wsdl, churn3-shard2 or fleet-wal-window")
	seed := flag.Int64("seed", 1, "seed for the sampler seeds of the timing replays and for the request schedules")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	summarize := flag.Bool("summarize", false, "print the summary and tracing overhead of the trace files written so far, then exit")
	flag.Parse()

	if *summarize {
		if err := summarizeDir(traceDir, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookup(workloads(), *name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	pins, err := committedPins()
	if err != nil {
		fatal(err)
	}
	want, ok := pins[w.name]
	if !ok {
		fatal(fmt.Errorf("workload drift in %s: pins.json has no entry", w.name))
	}
	workDir, err := filepath.Abs(".bench_build/tmp")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	opt := options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, pin: want,
		workDir: workDir, cacheDir: filepath.Join(filepath.Dir(workDir), "inputs"),
	}
	res, err := run(w, opt)
	if err != nil {
		fatal(err)
	}

	defs, values := endToEndMetrics, res.endToEnd
	if opt.trace {
		defs, values = layerMetrics, res.layers
	}
	metrics := withUnits(defs, values)
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("%s: metric %s is not finite", w.name, name))
		}
	}
	for _, line := range res.notes {
		fmt.Printf("%s: %s\n", w.name, line)
	}
	for _, d := range defs {
		fmt.Printf("%s: %-32s %16.6g %s\n", w.name, d.name, metrics[d.name].Value, d.unit)
	}
	if opt.trace {
		err = writeJSONFile(traceDir, w.name+".trace.json", traceFile{
			Workload: w.name, Seed: *seed, Metrics: metrics, EndToEnd: withUnits(endToEndMetrics, res.endToEnd),
			Spans: res.spans, Dropped: res.dropped, GoVersion: runtime.Version(),
		})
	} else {
		err = writeJSONFile(traceDir, w.name+".result.json", resultFile{Workload: w.name, Seed: *seed, Metrics: metrics})
	}
	if err != nil {
		fatal(err)
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(summary))
	if !res.correct {
		os.Exit(1)
	}
}

// inputPin computes a workload's input pin.
func inputPin(w workload) (pin, error) {
	if w.batch != nil {
		in, err := w.batch.inputs()
		return in.pin, err
	}
	in, err := w.served.inputs()
	return in.pin, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
