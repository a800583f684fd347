// Command stampbench is the repository's benchmark. It drives the two
// paths users run — the batch replay (`stamp atlas -replay`: ingest,
// InitDest, ApplyEvent) and the service (`stamp serve`: admission,
// per-shard settle, publish, reader and SSE visibility) — on inputs it
// generates from a seed, times them from outside through the modules'
// public functions and HTTP routes, checks every output against a
// from-scratch reference, and prints one JSON result line.
//
//	stampbench -workload replay-storm-50k -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 a separate traced run carries the per-layer metrics. See
// README.md for the workloads, the metric definitions and the map of
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs bounds the process to the two CPUs the benchmark is sized
// for: one process, GOMAXPROCS <= 2, server workers <= 2, at most two
// client connections.
const maxProcs = 2

// workload is one named benchmark workload.
type workload struct {
	name string
	// n is the generated topology's AS count.
	n   int
	run func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{name: "replay-storm-50k", n: 50000, run: runReplay},
	{name: "serve-read-10k", n: 10000, run: runServeRead},
	{name: "serve-churn-10k", n: 10000, run: runServeChurn},
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// n overrides the workload's AS count (self-test only).
	n int
	// dir holds the per-seed input cache and the trace exports.
	dir string
	// plant corrupts the live state with one event the reference does
	// not know about, so the correctness gates must count a failure
	// (self-test only).
	plant bool
	log   io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// byName holds the workload's metrics under their workload-specific
	// names (replay_dest_events_per_s, read_ms_p99, ...), printed as
	// human-readable lines before the JSON.
	byName []namedMetric
	// failures describes each failed operation class, for the log.
	failures []string
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) named(name string, v float64, unit string) {
	r.byName = append(r.byName, namedMetric{name, v, unit})
}

// ops counts attempted operations and records failures.
func (r *result) ops(attempted, failed int64, what string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d/%d %s", failed, attempted, what))
	}
}

// fail records one failed check as a failed operation.
func (r *result) fail(format string, args ...any) {
	r.ops(1, 1, fmt.Sprintf(format, args...))
}

// check records one correctness probe.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.ops(1, 0, "")
		return
	}
	r.fail(format, args...)
}

// endToEnd and perLayer are the metric sets of BENCHMARK.json, in
// order. Every workload reports every metric of the set its run mode
// asks for; per-layer metrics of a layer the workload does not exercise
// read 0 (README.md lists which layers each workload exercises).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"failed_ops_share", "ratio"},
	{"atlas.ingest_s", "s"},
	{"atlas.init_dest_ms_p50", "ms"},
	{"atlas.apply_event_ms_p50", "ms"},
	{"atlas.apply_event_ms_p99", "ms"},
	{"atlas.cascade_ms_p50", "ms"},
	{"atlas.converge_ms_p50", "ms"},
	{"atlas.loss_ms_p50", "ms"},
	{"atlas.us_per_changed_route", "us"},
	{"atlas.changed_per_event", "count"},
	{"atlas.rounds_per_event", "count"},
	{"atlas.frontier_per_event", "count"},
	{"atlas.snapshot_routes_ms_p50", "ms"},
	{"atlas.converge_scratch_ms_p50", "ms"},
	{"atlas.allocs_per_event", "count"},
	{"serve.apply_ms_p50", "ms"},
	{"serve.apply_ms_p99", "ms"},
	{"serve.handler_apply_ms_mean", "ms"},
	{"serve.apply_paced_ms_p50", "ms"},
	{"serve.publish_ms_p50", "ms"},
	{"serve.event_visible_ms_p99", "ms"},
	{"serve.sse_delivery_ms_p50", "ms"},
	{"serve.sse_delivery_ms_p99", "ms"},
	{"serve.read_ms_p99", "ms"},
	{"serve.read_state_ms_p50", "ms"},
	{"serve.read_state_ms_p99", "ms"},
	{"serve.read_why_ms_p50", "ms"},
	{"serve.read_why_ms_p99", "ms"},
	{"serve.read_summary_ms_p50", "ms"},
	{"serve.handler_read_ms_mean", "ms"},
	{"serve.read_staleness_epochs_p99", "epochs"},
	{"serve.snapshot_fallbacks", "count"},
	{"serve.why_truncated_share", "ratio"},
	{"runner.trials_per_event", "count"},
	{"obs.scrape_ms_p50", "ms"},
	{"obs.scrape_bytes", "bytes"},
	{"prov.appends_per_event", "count"},
	{"prov.evictions", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.dropped", "count"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: replay-storm-50k, serve-read-10k or serve-churn-10k")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		traced  = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "input cache and trace export directory")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "stampbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	cfg := runConfig{
		workload: w.name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, dir: *dir, log: os.Stderr,
	}
	res, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stampbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.traced); err != nil {
		fmt.Fprintf(os.Stderr, "stampbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs the workload and completes the metric set its mode
// reports.
func execute(w workload, cfg runConfig) (*result, error) {
	if cfg.n <= 0 {
		cfg.n = w.n
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	share := float64(res.Failed) / float64(res.Attempted)
	res.named("failed_ops_share", share, "ratio")
	res.Correct = res.Failed == 0
	rss := peakRSSMB()
	res.named("rss_peak_mb", rss, "MB")
	res.set("failed_ops_share", share, "ratio")
	set := endToEnd
	if cfg.traced {
		set = perLayer
	}
	reported := make(map[string]metric, len(set))
	for _, m := range set {
		v, ok := res.Metrics[m.name]
		switch {
		case ok:
		case cfg.traced:
			v = metric{Value: 0, Unit: m.unit} // a layer this workload does not exercise
		default:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		reported[m.name] = v
	}
	res.Metrics = reported
	return res, nil
}

// print writes the human-readable lines and, last, the JSON result.
func (r *result) print(w io.Writer, traced bool) error {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "# workload metrics by name:\n")
	for _, m := range r.byName {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "# %s metrics:\n", mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tracePath names a traced run's Chrome export.
func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}
