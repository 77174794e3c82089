package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudmon/internal/obs"
)

// LatencySummary holds the distribution of recorded request latencies in
// microseconds (floats keep the JSON stable and unit-explicit).
type LatencySummary struct {
	P50  float64 `json:"p50_us"`
	P95  float64 `json:"p95_us"`
	P99  float64 `json:"p99_us"`
	Mean float64 `json:"mean_us"`
	Max  float64 `json:"max_us"`
}

// OpStats aggregates one matrix cell.
type OpStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	MeanUS   float64 `json:"mean_us"`
}

// Report is the run summary emitted by Run — the JSON document cmd/loadmon
// prints with -json.
type Report struct {
	Scenario string `json:"scenario"`
	Clients  int    `json:"clients"`
	// Requests counts the recorded (post-warmup) requests.
	Requests int `json:"requests"`
	Warmup   int `json:"warmup"`
	// Errors counts transport failures (the system under test was
	// unreachable) over every request the run issued, warmup included;
	// the latency, throughput, status and per-op figures are post-warmup.
	// Contract verdicts such as 412 Blocked are measured responses, not
	// errors.
	Errors     int            `json:"errors"`
	DurationMS float64        `json:"duration_ms"`
	Throughput float64        `json:"throughput_rps"`
	Latency    LatencySummary `json:"latency"`
	// Status tallies responses by HTTP status code.
	Status map[int]int `json:"status"`
	// Ops breaks the run down per matrix cell.
	Ops map[string]OpStats `json:"ops"`
	// Verdicts tallies the monitor outcomes the run produced (present
	// when the target exposes its outcome counters). Includes warmup
	// requests: the counters are diffed around the whole run.
	Verdicts map[string]int `json:"verdicts,omitempty"`
	// InjectedFaults tallies fired fault-injection rules by kind (present
	// when the target exposes its injector counters).
	InjectedFaults map[string]int `json:"injected_faults,omitempty"`
	// Audit tallies the audit records written during the run, per outcome
	// (present when the target exposes its audit sink; diffed around the
	// run exactly like Verdicts, so the two must agree on non-OK outcomes).
	Audit map[string]int `json:"audit,omitempty"`
	// Stages holds the monitor's per-pipeline-stage latency summaries
	// (present when the target exposes its tracer). The histograms are
	// cumulative over the monitor's lifetime, warmup and prepopulation
	// included.
	Stages map[string]obs.StageSummary `json:"stages,omitempty"`
	// Fetch is the run's cloud-read economy, diffed around the run like
	// Verdicts (present when the target exposes its fetch counters).
	Fetch *FetchEconomy `json:"fetch,omitempty"`
	// AsyncPost summarizes the deferred post-verification pipeline
	// (present when the target runs -post async and saw traffic): how
	// many captures were queued, how many late violations they found and
	// the detection-lag percentiles, measured from response return to
	// verdict record.
	AsyncPost *AsyncPostReport `json:"async_post,omitempty"`
}

// AsyncPostReport is the async post section of the run summary.
type AsyncPostReport struct {
	Enqueued       uint64  `json:"enqueued"`
	LateViolations uint64  `json:"late_violations"`
	LagP50US       float64 `json:"lag_p50_us"`
	LagP95US       float64 `json:"lag_p95_us"`
	LagP99US       float64 `json:"lag_p99_us"`
}

// percentile returns the q-quantile (0 < q <= 1) of the sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// buildReport merges the per-worker recorders into the run summary.
func buildReport(sc Scenario, clients int, elapsed time.Duration, recorders []*recorder, verdicts map[string]int) *Report {
	r := &Report{
		Scenario:   sc.Name,
		Clients:    clients,
		Warmup:     sc.Warmup,
		DurationMS: float64(elapsed.Nanoseconds()) / 1e6,
		Status:     make(map[int]int),
		Ops:        make(map[string]OpStats),
		Verdicts:   verdicts,
	}
	var all []time.Duration
	var sum time.Duration
	opSums := make(map[string]time.Duration)
	for _, rec := range recorders {
		r.Errors += rec.warmupErrors
		for _, s := range rec.samples {
			r.Requests++
			if s.err {
				r.Errors++
			}
			r.Status[s.status]++
			all = append(all, s.latency)
			sum += s.latency
			st := r.Ops[s.op]
			st.Requests++
			if s.err {
				st.Errors++
			}
			r.Ops[s.op] = st
			opSums[s.op] += s.latency
		}
	}
	for op, st := range r.Ops {
		if st.Requests > 0 {
			st.MeanUS = us(opSums[op]) / float64(st.Requests)
		}
		r.Ops[op] = st
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		r.Latency = LatencySummary{
			P50:  us(percentile(all, 0.50)),
			P95:  us(percentile(all, 0.95)),
			P99:  us(percentile(all, 0.99)),
			Mean: us(sum) / float64(len(all)),
			Max:  us(all[len(all)-1]),
		}
	}
	if elapsed > 0 {
		r.Throughput = float64(r.Requests) / elapsed.Seconds()
	}
	return r
}

// Text renders the report as an aligned human-readable summary.
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s: %d requests (%d warmup) over %d clients in %.1f ms\n",
		r.Scenario, r.Requests, r.Warmup, r.Clients, r.DurationMS)
	fmt.Fprintf(&sb, "  throughput %.0f req/s, errors %d\n", r.Throughput, r.Errors)
	fmt.Fprintf(&sb, "  latency µs: p50 %.0f  p95 %.0f  p99 %.0f  mean %.0f  max %.0f\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Mean, r.Latency.Max)
	statuses := make([]int, 0, len(r.Status))
	for s := range r.Status {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	sb.WriteString("  status:")
	for _, s := range statuses {
		fmt.Fprintf(&sb, " %d×%d", s, r.Status[s])
	}
	sb.WriteByte('\n')
	if len(r.Verdicts) > 0 {
		names := make([]string, 0, len(r.Verdicts))
		for v := range r.Verdicts {
			names = append(names, v)
		}
		sort.Strings(names)
		sb.WriteString("  verdicts:")
		for _, v := range names {
			fmt.Fprintf(&sb, " %s=%d", v, r.Verdicts[v])
		}
		sb.WriteByte('\n')
	}
	if len(r.InjectedFaults) > 0 {
		kinds := make([]string, 0, len(r.InjectedFaults))
		for k := range r.InjectedFaults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		sb.WriteString("  injected faults:")
		for _, k := range kinds {
			fmt.Fprintf(&sb, " %s=%d", k, r.InjectedFaults[k])
		}
		sb.WriteByte('\n')
	}
	if len(r.Audit) > 0 {
		names := make([]string, 0, len(r.Audit))
		for v := range r.Audit {
			names = append(names, v)
		}
		sort.Strings(names)
		sb.WriteString("  audit records:")
		for _, v := range names {
			fmt.Fprintf(&sb, " %s=%d", v, r.Audit[v])
		}
		sb.WriteByte('\n')
	}
	if f := r.Fetch; f != nil && f.Requests > 0 {
		fmt.Fprintf(&sb, "  fetch economy: %d cloud GETs (%.2f/req), %d paths fetched (%.2f/req), %d waves\n",
			f.CloudGets, float64(f.CloudGets)/float64(f.Requests),
			f.PathsFetched, float64(f.PathsFetched)/float64(f.Requests),
			f.Waves)
	}
	if ap := r.AsyncPost; ap != nil {
		fmt.Fprintf(&sb, "  async post: %d enqueued, %d late violations; lag µs: p50 %.0f  p95 %.0f  p99 %.0f\n",
			ap.Enqueued, ap.LateViolations, ap.LagP50US, ap.LagP95US, ap.LagP99US)
	}
	if len(r.Stages) > 0 {
		for _, name := range obs.StageNames() {
			st, ok := r.Stages[name]
			if !ok || st.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  stage %-14s %8d spans  p50 %.0f  p95 %.0f  p99 %.0f  mean %.0f µs\n",
				name, st.Count, st.P50US, st.P95US, st.P99US, st.MeanUS)
		}
	}
	ops := make([]string, 0, len(r.Ops))
	for op := range r.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := r.Ops[op]
		fmt.Fprintf(&sb, "  %-28s %6d req  %5d err  mean %.0f µs\n", op, st.Requests, st.Errors, st.MeanUS)
	}
	return sb.String()
}
