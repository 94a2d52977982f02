// Command perfbench is the serving benchmark of holisticim. It runs one
// named workload against the real service.Server and cluster.Router
// handlers, served on loopback listeners inside this process, checks
// every answer, and prints one JSON result line:
//
//	perfbench -workload routed-serve -seed 1 -seconds 45 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run. See README.md for
// the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports in an
// untraced run, with their units. The operation is a read on the serve
// workloads and a job on cold-jobs; README.md gives each workload's tail
// percentile.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer lists the per-layer metrics every traced run reports, with
// their units. A layer the workload does not run reports 0.
var perLayer = []struct{ name, unit string }{
	{"graph.generate_s", "s"},
	{"graph.fingerprint_ms", "ms"},
	{"ris.sample_sets_per_s", "1/s"},
	{"ris.max_coverage_ms", "ms"},
	{"ris.memory_walk_us", "us"},
	{"ris.cold_imm_ms", "ms"},
	{"sketch.build_s", "s"},
	{"sketch.select_p50_us", "us"},
	{"sketch.select_p99_us", "us"},
	{"sketch.select_self_us", "us"},
	{"sketch.estimate_opinion_us", "us"},
	{"sketch.stats_us", "us"},
	{"sketch.repair_ms", "ms"},
	{"sketch.repair_resampled", "count"},
	{"sketch.repair_changed_share", "ratio"},
	{"sketch.reselect_ms", "ms"},
	{"sketch.save_ms", "ms"},
	{"sketch.load_ms", "ms"},
	{"sketch.sets", "count"},
	{"sketch.bytes", "bytes"},
	{"sketch.extensions", "count"},
	{"holisticim.plan_us", "us"},
	{"holisticim.run_self_us", "us"},
	{"service.transport_us", "us"},
	{"service.handler_self_us", "us"},
	{"service.encode_us", "us"},
	{"service.job_overhead_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_share", "ratio"},
	{"service.cache_lookups", "count"},
	{"obs.scrape_p50_ms", "ms"},
	{"obs.scrape_p99_ms", "ms"},
	{"cluster.proxy_us", "us"},
	{"cluster.upstream_per_read", "ratio"},
	{"cluster.scatter_share", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.publish_ms", "ms"},
	{"cluster.sync_ms", "ms"},
	{"core.easyim_ms", "ms"},
	{"core.osim_ms", "ms"},
	{"diffusion.mc_estimate_ms", "ms"},
	{"heuristics.degree_discount_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	workdir string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// report accumulates a run's figures and correctness findings.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
	detail    map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// wrong records a correctness failure (the run then reports correct:false).
func (r *report) wrong(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, runConfig, *report) error{
	"routed-serve": runRoutedServe,
	"cold-jobs":    runColdJobs,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 45, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	workdir := flag.String("workdir", ".", "directory for snapshot stores and span dumps")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	rep := newReport()
	if err := run(context.Background(), cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	detail, _ := json.Marshal(rep.detail)
	fmt.Fprintf(os.Stderr, "detail: %s\n", detail)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "wrong: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result builds the printed line: end-to-end metrics, or per-layer ones
// for a traced run. A missing end-to-end metric is a harness bug.
func (r *report) result(traced bool) (result, error) {
	res := result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := r.e2e[m.name]
		if !ok {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it. A set-up with a sketch
// build takes seconds, so three fit in every run; cold-jobs' takes half a
// second and is noisier, so it sets up seven times.
const (
	setupRounds     = 3
	coldSetupRounds = 7
)

// setupRepeated runs build rounds times, releasing all but the last
// instance, and records setup_s (median seconds) and heap_mb (the Go
// heap in use after the last set-up and a forced GC).
func setupRepeated[T any](rep *report, rounds int, build func() (T, error), release func(T)) (T, error) {
	var inst T
	secs := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if i > 0 {
			release(inst)
			runtime.GC()
		}
		start := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return inst, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(secs)
	rep.detail["setup_s_each"] = secs
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.e2e["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return inst, nil
}

// runtimeCounters samples the Go runtime's cumulative allocation and GC
// counters, for per-operation deltas across a measured window.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// recordRuntime sets the runtime layer metrics for ops operations run
// between before and now.
func (r *report) recordRuntime(before runtimeCounters, ops int) {
	if ops == 0 {
		return
	}
	after := readRuntime()
	r.layer["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
	r.layer["runtime.gc_cycles_per_kop"] = float64(after.gcCycles-before.gcCycles) * 1000 / float64(ops)
}

// recordLatency sets the operation rate and latency figures from one
// measured window: ops_per_s, p50_ms and tail_ms at the highest
// percentile up to want that the sample supports (a shortfall is
// reported on standard error and in the detail line).
func (r *report) recordLatency(latMS []float64, rate float64, want float64) {
	t := summarize(latMS, want)
	r.e2e["ops_per_s"] = rate
	r.e2e["p50_ms"] = t.P50
	r.e2e["tail_ms"] = t.At
	r.detail["ops"] = t.N
	r.detail["tail_percentile"] = t.Pct
	if t.Pct < want {
		fmt.Fprintf(os.Stderr, "perfbench: only %d operations support percentile %.3f, below the wanted %.2f\n", t.N, t.Pct, want)
	}
}

// spanDump writes the tracer's spans next to the build outputs.
func spanDump(cfg runConfig, t *tracer, workload string) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", workload, cfg.seed))
	if err := t.writeSpans(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
	}
}
