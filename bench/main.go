// Command bench is the repository's benchmark: it deploys the paper's
// Cinder monitor in process against the simulated OpenStack cloud, drives
// a seeded closed-loop workload through it, checks every reply and
// verdict, and prints the metrics by name and unit.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer breakdown from a traced run next to an untraced one. The
// report lists every figure; the last line of standard output is one
// JSON object with the bounded end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1):
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"name": {"value": 1.5, "unit": "ms"}}}
//
// When an output check fails the checks are listed on standard error,
// the JSON line carries "correct": false and no metrics, and the exit
// code is 1. Usage errors exit with 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the monitor sees that hold still
// from run to run, measured with tracing off; BENCHMARK.json bounds each.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"detection_lag_p50_ms", "ms"},
	{"correct_verdict_share", "share"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// reportOnly are figures the report prints that the JSON line leaves
// out. The first five are end-to-end figures without a bound. On a small
// shared host, CPU steal and timer wake-up delays move throughput and
// tail latency by more than any useful bound from one run to the next.
// The failed and false-violation shares are zero wherever the checks
// demand it, so no bound can be a share of their median;
// correct_verdict_share carries both. A traced run reports all five as
// per-layer figures of the client and monitor layers (see tracedNames).
// The last two are per-layer times that are zero by construction on some
// workload (no front, no RTT); fleet.self_share carries the first, the
// reconciliation line the second.
var reportOnly = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p99_ms", "ms"},
	{"detection_lag_p99_ms", "ms"},
	{"failed_share", "share"},
	{"false_violation_share", "share"},
	{"fleet.self_us", "us"},
	{"rtt.self_us", "us"},
}

// tracedNames renames the unbounded figures for the per-layer report.
var tracedNames = map[string]string{
	"throughput_rps":        "client.throughput_rps",
	"latency_p99_ms":        "client.latency_p99_ms",
	"failed_share":          "client.failed_share",
	"detection_lag_p99_ms":  "monitor.detection_lag_p99_ms",
	"false_violation_share": "monitor.false_violation_share",
}

// perLayer are the metrics of single layers. Unless the name says
// otherwise each is per client request of the timed window.
var perLayer = []metricDef{
	{"client.throughput_rps", "1/s"},
	{"client.latency_p99_ms", "ms"},
	{"client.failed_share", "share"},
	{"client.latency_us", "us"},
	{"fleet.self_share", "share"},
	{"fleet.fence_waits", "count"},
	{"fleet.max_member_share", "share"},
	{"monitor.span_us", "us"},
	{"monitor.self_us", "us"},
	{"monitor.detection_lag_p99_ms", "ms"},
	{"monitor.false_violation_share", "share"},
	{"contract.pre_eval_us", "us"},
	{"contract.post_eval_us", "us"},
	{"osbinding.pre.calls", "count"},
	{"osbinding.pre.us", "us"},
	{"osbinding.post.calls", "count"},
	{"osbinding.post.us", "us"},
	{"osbinding.self_us", "us"},
	{"osbinding.cloud_gets", "count"},
	{"osbinding.retries", "count"},
	{"monitor.forward.calls", "count"},
	{"monitor.forward.us", "us"},
	{"monitor.forward.self_us", "us"},
	{"monitor.paths_fetched", "count"},
	{"monitor.coalesced", "count"},
	{"monitor.async.enqueued", "count"},
	{"monitor.async.shed", "count"},
	{"monitor.async.fence_waits", "count"},
	{"httpkit.round_trips", "count"},
	{"httpkit.self_us", "us"},
	{"openstack.requests", "count"},
	{"openstack.us", "us"},
	{"openstack.self_us", "us"},
	{"obs.audit.records", "count"},
	{"obs.audit.bytes_per_record", "bytes"},
	{"process.allocs", "count"},
	{"process.alloc_bytes", "bytes"},
	{"process.gc_cycles_per_1k", "count"},
	{"process.cpu_us", "us"},
	{"client.residual_us", "us"},
	{"trace.overhead", "share"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same request sequence")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer breakdown from a traced run")
	out := fs.String("out", ".bench_build", "directory for audit trails (removed after the run) and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	agg := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, w := range selected {
		var r *result
		var err error
		if *trace == 1 {
			r, err = runLayers(w, *seed, window, *out)
		} else {
			r, err = runEndToEnd(w, *seed, window, *out)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		reported := endToEnd
		if *trace == 1 {
			reported = perLayer
		}
		failed := r.checks
		for _, m := range r.missing {
			if declared(reported, m.name) {
				failed = append(failed, "too few samples for "+m.name+": "+m.reason)
			} else {
				r.notes = append(r.notes, "not reported: "+m.name+": "+m.reason)
			}
		}
		printResult(stdout, r, *seed, len(failed) == 0)
		agg.Attempted += r.attempted
		agg.Failed += r.failed
		for _, c := range failed {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, c)
			agg.Correct = false
		}
		for _, m := range r.metrics {
			if !declared(reported, m.name) {
				continue
			}
			key := m.name
			if len(selected) > 1 {
				key = w.name + "/" + m.name
			}
			agg.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if !agg.Correct {
		agg.Metrics = map[string]jsonMetric{}
	}
	line, err := json.Marshal(agg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !agg.Correct {
		return 1
	}
	return 0
}

// printResult prints a workload's report; the metrics only when every
// output check passed.
func printResult(w io.Writer, r *result, seed int64, withMetrics bool) {
	fmt.Fprintf(w, "workload %s, seed %d\n", r.workload, seed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if !withMetrics {
		return
	}
	for _, m := range r.metrics {
		if m.note != "" {
			fmt.Fprintf(w, "  %-28s %14.6f %-6s (%s)\n", m.name, m.value, m.unit, m.note)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
}
