package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/osclient"
)

// client is one closed-loop caller: it sends its next request only once
// the previous reply is in and checked.
type client struct {
	idx int
	gen *generator
	// pause draws the think time before each request, from its own
	// source so the request sequence does not depend on it.
	pause    *rand.Rand
	projects []project
	http     *http.Client
	t        *tracer

	issued    int
	transport int // requests that got no HTTP reply
	created   int
	// mismatches counts replies the Table I oracle did not predict.
	mismatches    int
	firstMismatch string
	// opened is when the timed window opened; lat holds the latencies of
	// the requests sent in it.
	opened time.Time
	lat    []sample
}

type volumeReply struct {
	Volume struct {
		ID string `json:"id"`
	} `json:"volume"`
}

// step sends one request, checks the reply against the oracle and
// updates the client's pools.
func (c *client) step(window bool, think time.Duration) {
	if think > 0 {
		time.Sleep(time.Duration(c.pause.Int63n(int64(think))))
	}
	req := c.gen.next()
	p := c.projects[req.project]
	path := "/projects/" + p.id + "/volumes"
	if req.volume != "" {
		path += "/" + req.volume
	}
	var in, out any
	var reply volumeReply
	switch req.cell.method {
	case http.MethodPost:
		c.created++
		in = map[string]map[string]any{"volume": {"name": fmt.Sprintf("c%d-%d", c.idx, c.created), "size": 1}}
		out = &reply
	case http.MethodPut:
		in = map[string]map[string]any{"volume": {"name": fmt.Sprintf("c%d-r%d", c.idx, c.issued)}}
	}
	oc := osclient.Client{BaseURL: monitorURL, Token: p.tokens[req.cell.role], HTTPClient: c.http}
	ctx := context.Background()
	var root spanRef
	if c.t != nil && window && c.t.on.Load() {
		root = spanRef{req: c.t.reqs.Add(1), id: c.t.newID()}
		ctx = withRef(ctx, root)
	}
	start := time.Now()
	status, err := oc.DoCtx(ctx, req.cell.method, path, in, out, nil)
	end := time.Now()
	if root.id != 0 {
		c.t.add(span{id: root.id, req: root.req, layer: layerClient,
			start: int64(start.Sub(c.t.epoch)), end: int64(end.Sub(c.t.epoch))})
	}
	c.issued++
	if status == 0 && err != nil {
		c.transport++
		return
	}
	want, _ := expectedStatus(req.cell.role, req.cell.method, true)
	created := reply.Volume.ID
	if !statusMatches(want, status) || (req.cell.method == http.MethodPost && status/100 == 2 && created == "") {
		c.mismatches++
		if c.firstMismatch == "" {
			c.firstMismatch = fmt.Sprintf("%s %s as %s: got %d, Table I expects %d (%v)", req.cell.method, path, req.cell.role, status, want, err)
		}
		return
	}
	c.gen.apply(req, status, created)
	if window {
		c.lat = append(c.lat, sample{at: int64(end.Sub(c.opened)), d: end.Sub(start)})
	}
}

// driver runs a workload's clients against one deployment.
type driver struct {
	w       workload
	sc      *seededCloud
	dep     *deployment
	clients []*client
	t       *tracer
}

func newDriver(w workload, sc *seededCloud, dep *deployment, seed int64, t *tracer) *driver {
	d := &driver{w: w, sc: sc, dep: dep, t: t}
	httpc := httpkit.HandlerClient(dep.handler)
	for i := range clients {
		pools := make([][]string, len(sc.pools[i]))
		for p, pool := range sc.pools[i] {
			pools[p] = append(make([]string, 0, w.hi), pool...)
		}
		d.clients = append(d.clients, &client{
			idx:      i,
			gen:      newGenerator(w, seed, i, pools),
			pause:    rand.New(rand.NewSource(seed*7_001 + int64(i))),
			projects: sc.projects[i],
			http:     httpc,
			t:        t,
		})
	}
	return d
}

// drive runs every client until dur has passed and returns the time from
// start to the last reply.
func (d *driver) drive(dur time.Duration, window bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		c.opened = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step(window, d.w.think)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// counters is a snapshot of the counters the packages export, summed over
// the deployment's instances, plus the process's own.
type counters struct {
	fetch                      monitor.FetchStats
	enqueued, shed, fenceWaits uint64
	stageSum                   map[string]float64 // microseconds
	gets, retries              uint64
	frontRouted                map[string]uint64
	frontFenceWaits            uint64
	auditRecords               uint64
	mallocs, allocBytes, numGC uint64
	cpu                        time.Duration
}

func snapshot(dep *deployment) counters {
	c := counters{stageSum: make(map[string]float64), frontRouted: make(map[string]uint64)}
	for _, in := range dep.instances {
		fs := in.mon.FetchStats()
		c.fetch.Requests += fs.Requests
		c.fetch.PathsFetched += fs.PathsFetched
		c.fetch.Coalesced += fs.Coalesced
		as := in.mon.AsyncPostStats()
		c.enqueued += as.Enqueued
		c.shed += as.Shed
		c.fenceWaits += as.FenceWaits
		for name, s := range in.mon.StageSummaries() {
			c.stageSum[name] += float64(s.Count) * s.MeanUS
		}
		for _, p := range in.providers {
			ps := p.Stats()
			c.gets += ps.Gets
			c.retries += ps.Retries
		}
		for _, n := range in.audit.Counts() {
			c.auditRecords += n
		}
	}
	if dep.front != nil {
		fs := dep.front.Stats()
		c.frontRouted = fs.Routed
		c.frontFenceWaits = fs.FenceWaits
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// phase is the outcome of one measured deployment: a warm-up, the timed
// window, the drain of deferred checks, and the output checks.
type phase struct {
	requests int // requests sent in the timed window
	elapsed  time.Duration
	lat      []sample
	lags     []sample
	heapMB   float64
	before   counters
	after    counters

	attempted  int // every request sent, warm-up included
	failed     int // transport errors, Error and Unverified (shed) verdicts
	violations int
	verdicts   map[monitor.Outcome]int
	minPool    int
	maxPool    int
	checks     []string // failed output checks
}

// warmup is how long a run drives the system before the timed window:
// caches, pools, token lookups and the collector reach their steady state.
func warmup(window time.Duration) time.Duration {
	return min(1500*time.Millisecond, window/4)
}

// measure warms the deployment up, times the window, drains deferred
// checks and runs the output checks.
func (d *driver) measure(window time.Duration) phase {
	d.drive(warmup(window), false)
	var ph phase
	ph.before = snapshot(d.dep)
	opened := time.Now()
	for _, in := range d.dep.instances {
		in.sink.startSampling(opened)
	}
	if d.t != nil {
		d.t.on.Store(true)
	}
	ph.elapsed = d.drive(window, true)
	if d.t != nil {
		d.t.on.Store(false)
	}
	ph.after = snapshot(d.dep)
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live data is left. The
	// benchmark's own sample buffers grow with throughput and run length;
	// they are not part of the system under test and are left out.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	buffers := 0
	for _, c := range d.clients {
		buffers += cap(c.lat)
	}
	for _, in := range d.dep.instances {
		in.sink.mu.Lock()
		buffers += cap(in.sink.lags)
		in.sink.mu.Unlock()
	}
	ph.heapMB = (float64(ms.HeapAlloc) - float64(buffers)*float64(unsafe.Sizeof(sample{}))) / (1 << 20)
	for _, in := range d.dep.instances {
		in.mon.DrainPost()
		in.sink.stopSampling()
	}
	ph.minPool, ph.maxPool = d.w.hi, d.w.lo
	for _, c := range d.clients {
		ph.requests += len(c.lat)
		ph.lat = append(ph.lat, c.lat...)
		ph.attempted += c.issued
		ph.failed += c.transport
		ph.minPool = min(ph.minPool, c.gen.minSeen)
		ph.maxPool = max(ph.maxPool, c.gen.maxSeen)
	}
	ph.verdicts = make(map[monitor.Outcome]int)
	for _, in := range d.dep.instances {
		in.sink.mu.Lock()
		for o, n := range in.sink.byOutcome {
			ph.verdicts[o] += n
		}
		ph.lags = append(ph.lags, in.sink.lags...)
		in.sink.mu.Unlock()
	}
	for o, n := range ph.verdicts {
		if o.IsViolation() {
			ph.violations += n
		}
		if o == monitor.Error || o == monitor.Unverified {
			ph.failed += n
		}
	}
	ph.checks = d.check(&ph)
	return ph
}

// check runs the output checks; each failure is one line.
func (d *driver) check(ph *phase) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	for _, c := range d.clients {
		if c.mismatches > 0 {
			failf("client %d: %d replies differ from Table I; first: %s", c.idx, c.mismatches, c.firstMismatch)
		}
		if c.transport > 0 {
			failf("client %d: %d requests got no reply", c.idx, c.transport)
		}
	}
	verdicts, counted := 0, 0
	for _, n := range ph.verdicts {
		verdicts += n
	}
	for _, in := range d.dep.instances {
		for _, n := range in.mon.Outcomes() {
			counted += n
		}
	}
	if verdicts != ph.attempted || counted != ph.attempted {
		failf("verdicts: %d requests sent, %d verdicts delivered, %d counted by the monitors", ph.attempted, verdicts, counted)
	}
	if d.w.strictVerdicts {
		for o, n := range ph.verdicts {
			if o != monitor.OK && o != monitor.Blocked {
				failf("verdicts: %d %s verdicts on a workload where every request is OK or blocked", n, o)
			}
		}
	}
	for _, in := range d.dep.instances {
		in.sink.mu.Lock()
		nonOK := make(map[string]int)
		for o, n := range in.sink.byOutcome {
			if o != monitor.OK {
				nonOK[o.String()] += n
			}
		}
		in.sink.mu.Unlock()
		audited := in.audit.Counts()
		for o, n := range nonOK {
			if int(audited[o]) != n {
				failf("audit %s: %d %s verdicts, %d audit records", in.id, n, o, audited[o])
			}
		}
		for o, n := range audited {
			if _, ok := nonOK[o]; !ok && n > 0 {
				failf("audit %s: %d %s audit records without verdicts", in.id, n, o)
			}
		}
	}
	if d.dep.front != nil {
		fs := d.dep.front.Stats()
		if int(fs.Requests) != ph.attempted || fs.Remaps != 0 {
			failf("front: routed %d of %d requests with %d remaps", fs.Requests, ph.attempted, fs.Remaps)
		}
	}
	// The cloud must hold exactly the volumes the replies reported.
	want := make(map[string]int)
	for _, c := range d.clients {
		for p, pool := range c.gen.pools {
			want[c.projects[p].id] += len(pool)
		}
	}
	for id, n := range want {
		if got := len(d.sc.cloud.Volumes.Volumes(id)); got != n {
			failf("cloud: project %s holds %d volumes, the replies account for %d", id, got, n)
		}
	}
	return fails
}

// result is one workload run: the metrics and the check failures.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   []metricValue
	notes     []string // human-readable lines printed before the metrics
	checks    []string // failed output checks
	// missing lists the figures a run could not report because the window
	// held too few samples, with the reason. A missing figure the JSON line
	// should carry fails the run like a check.
	missing []missingFigure
}

type missingFigure struct{ name, reason string }

type metricValue struct {
	name  string
	unit  string
	value float64
	note  string
}

func (r *result) add(name string, value float64, note string) {
	r.metrics = append(r.metrics, metricValue{name: name, unit: unitOf(name), value: value, note: note})
}

// setupReps is how many times a run assembles the deployment to time its
// set-up; the median is reported.
const setupReps = 21

// runEndToEnd measures a workload's end-to-end metrics with tracing off.
func runEndToEnd(w workload, seed int64, window time.Duration, outDir string) (*result, error) {
	sc, err := seedCloud(w)
	if err != nil {
		return nil, err
	}
	auditDir, err := os.MkdirTemp(outDir, "audit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(auditDir)
	audits, err := openAudits(w, auditDir)
	if err != nil {
		return nil, err
	}
	defer closeAudits(audits)
	dep, setup, err := timedSetup(w, sc, audits, setupReps)
	if err != nil {
		return nil, err
	}
	ph := newDriver(w, sc, dep, seed, nil).measure(window)
	if err := dep.close(); err != nil {
		return nil, err
	}
	r := &result{workload: w.name, attempted: ph.attempted, failed: ph.failed, checks: ph.checks}
	r.userMetrics(w, window, ph)
	r.add("setup_s", setup, fmt.Sprintf("median of %d assemblies", setupReps))
	return r, nil
}

// userMetrics adds what a user of the monitor sees in one measured phase:
// throughput, latency, verdict quality, detection lag and memory.
// Latency figures are medians over slices of the window (see
// chunkedPercentile); a figure the window holds too few samples for is
// listed as missing.
func (r *result) userMetrics(w workload, window time.Duration, ph phase) {
	r.notes = append(r.notes,
		fmt.Sprintf("%d closed-loop clients, %.1f s window after %.1f s warm-up, %d requests in the window, %d in all",
			clients, ph.elapsed.Seconds(), warmup(window).Seconds(), ph.requests, ph.attempted),
		fmt.Sprintf("volume band: each client keeps %d..%d volumes per project (visited %d..%d)", w.lo, w.hi, ph.minPool, ph.maxPool),
		fmt.Sprintf("verdicts: %s", formatOutcomes(ph.verdicts)))
	pct := func(name string, samples []sample, q float64, what string) {
		v, k, err := chunkedPercentile(samples, q)
		if err != nil {
			r.missing = append(r.missing, missingFigure{name, err.Error()})
			return
		}
		n := len(samples)
		r.add(name, ms(v), fmt.Sprintf("median of %d slices of %d %s, %d beyond each; n=%d", k, n/k, what, beyond(n/k, q), n))
	}
	r.add("throughput_rps", chunkedRate(ph.lat, ph.elapsed),
		fmt.Sprintf("median of %d slices of the window; mean %.1f", maxChunks, float64(ph.requests)/ph.elapsed.Seconds()))
	pct("latency_p50_ms", ph.lat, 0.50, "requests")
	pct("latency_p99_ms", ph.lat, 0.99, "requests")
	pct("detection_lag_p50_ms", ph.lags, 0.50, "verdicts")
	pct("detection_lag_p99_ms", ph.lags, 0.99, "verdicts")
	share := func(k int) float64 { return float64(k) / float64(max(ph.attempted, 1)) }
	r.add("failed_share", share(ph.failed), fmt.Sprintf("%d of %d requests", ph.failed, ph.attempted))
	r.add("false_violation_share", share(ph.violations), fmt.Sprintf("%d of %d requests", ph.violations, ph.attempted))
	r.add("correct_verdict_share", 1-share(ph.failed+ph.violations), "neither failed nor a false violation")
	r.add("heap_mb", ph.heapMB, "live heap after forced collections at the end of the window")
}

// runLayers measures the per-layer breakdown: an untraced deployment for
// the exported counters and the process figures, then a traced one for
// the spans. The difference in mean latency between the two is the
// tracing overhead.
func runLayers(w workload, seed int64, window time.Duration, outDir string) (*result, error) {
	auditDir, err := os.MkdirTemp(outDir, "audit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(auditDir)

	// Untraced: counters and process figures.
	sc, err := seedCloud(w)
	if err != nil {
		return nil, err
	}
	audits, err := openAudits(w, filepath.Join(auditDir, "untraced"))
	if err != nil {
		return nil, err
	}
	defer closeAudits(audits)
	dep, err := deploy(w, sc, audits)
	if err != nil {
		return nil, err
	}
	a := newDriver(w, sc, dep, seed, nil).measure(window)
	if err := dep.close(); err != nil {
		return nil, err
	}
	auditSize, err := auditBytes(filepath.Join(auditDir, "untraced"))
	if err != nil {
		return nil, err
	}
	sc, dep = nil, nil
	runtime.GC()

	// Traced: spans.
	t := newTracer()
	sc, err = seedCloud(w)
	if err != nil {
		return nil, err
	}
	traced, err := openAudits(w, filepath.Join(auditDir, "traced"))
	if err != nil {
		return nil, err
	}
	defer closeAudits(traced)
	dep, err = deployTraced(w, sc, traced, t)
	if err != nil {
		return nil, err
	}
	b := newDriver(w, sc, dep, seed, t).measure(window)
	if err := dep.close(); err != nil {
		return nil, err
	}
	spans := t.recorded()
	if err := writeSpans(filepath.Join(outDir, "spans-"+w.name+".csv"), spans); err != nil {
		return nil, err
	}
	st := analyze(spans)

	r := &result{workload: w.name, attempted: a.attempted + b.attempted, failed: a.failed + b.failed}
	r.userMetrics(w, window, a)
	for i, m := range r.metrics {
		if name, ok := tracedNames[m.name]; ok {
			r.metrics[i].name = name
		}
	}
	for i, m := range r.missing {
		if name, ok := tracedNames[m.name]; ok {
			r.missing[i].name = name
		}
	}
	r.checks = append(r.checks, prefixed("untraced: ", a.checks)...)
	r.checks = append(r.checks, prefixed("traced: ", b.checks)...)
	nA := float64(max(a.requests, 1))
	nB := float64(max(st.count[layerClient], 1))
	us := func(ns int64) float64 { return float64(ns) / nB / 1e3 }
	per := func(n int64) float64 { return float64(n) / nB }
	perA := func(n uint64) float64 { return float64(n) / nA }
	delta := func(f func(c counters) uint64) uint64 { return f(a.after) - f(a.before) }

	r.add("client.latency_us", us(st.total[layerClient]), "traced mean")
	r.add("fleet.self_us", us(st.self[layerFront]), "")
	r.add("fleet.self_share", float64(st.self[layerFront])/float64(max(st.total[layerClient], 1)), "of mean client latency")
	r.add("fleet.fence_waits", perA(delta(func(c counters) uint64 { return c.frontFenceWaits })), "")
	var routed, top uint64
	for id, n := range a.after.frontRouted {
		d := n - a.before.frontRouted[id]
		routed += d
		top = max(top, d)
	}
	r.add("fleet.max_member_share", float64(top)/float64(max(routed, 1)), "")
	r.add("monitor.span_us", us(st.total[layerMonitor]), "")
	r.add("monitor.self_us", us(st.self[layerMonitor]), "")
	stage := func(name string) float64 { return (a.after.stageSum[name] - a.before.stageSum[name]) / nA }
	r.add("contract.pre_eval_us", stage(obs.StagePreEval.String()), "")
	r.add("contract.post_eval_us", stage(obs.StagePostEval.String()), "")
	r.add("osbinding.pre.calls", per(st.count[layerSnapshot]-st.postCount), "")
	r.add("osbinding.pre.us", us(st.total[layerSnapshot]-st.postTotal), "")
	r.add("osbinding.post.calls", per(st.postCount), "")
	r.add("osbinding.post.us", us(st.postTotal), "")
	r.add("osbinding.self_us", us(st.self[layerSnapshot]), "")
	r.add("osbinding.cloud_gets", perA(delta(func(c counters) uint64 { return c.gets })), "")
	r.add("osbinding.retries", perA(delta(func(c counters) uint64 { return c.retries })), "")
	r.add("monitor.forward.calls", per(st.count[layerForward]), "")
	r.add("monitor.forward.us", us(st.total[layerForward]), "")
	r.add("monitor.forward.self_us", us(st.self[layerForward]), "")
	r.add("monitor.paths_fetched", perA(delta(func(c counters) uint64 { return c.fetch.PathsFetched })), "")
	r.add("monitor.coalesced", perA(delta(func(c counters) uint64 { return c.fetch.Coalesced })), "")
	r.add("monitor.async.enqueued", perA(delta(func(c counters) uint64 { return c.enqueued })), "")
	r.add("monitor.async.shed", perA(delta(func(c counters) uint64 { return c.shed })), "")
	r.add("monitor.async.fence_waits", perA(delta(func(c counters) uint64 { return c.fenceWaits })), "")
	r.add("httpkit.round_trips", per(st.count[layerRoundTrip]), "")
	r.add("httpkit.self_us", us(st.self[layerRoundTrip]), "")
	r.add("rtt.self_us", us(st.self[layerRTT]), "")
	r.add("openstack.requests", per(st.count[layerCloud]), "")
	r.add("openstack.us", us(st.total[layerCloud]), "")
	r.add("openstack.self_us", us(st.self[layerCloud]), "")
	records := delta(func(c counters) uint64 { return c.auditRecords })
	r.add("obs.audit.records", perA(records), "")
	r.add("obs.audit.bytes_per_record", float64(auditSize)/float64(max(a.after.auditRecords, 1)), "whole run")
	r.add("process.allocs", perA(delta(func(c counters) uint64 { return c.mallocs })), "")
	r.add("process.alloc_bytes", perA(delta(func(c counters) uint64 { return c.allocBytes })), "")
	r.add("process.gc_cycles_per_1k", 1000*perA(delta(func(c counters) uint64 { return c.numGC })), "")
	r.add("process.cpu_us", float64(a.after.cpu-a.before.cpu)/nA/1e3, "")
	r.add("client.residual_us", us(st.self[layerClient]), "")
	meanA := meanDuration(a.lat)
	meanB := float64(st.total[layerClient]) / nB
	r.add("trace.overhead", meanB/meanA-1, fmt.Sprintf("traced %.1f us vs untraced %.1f us mean latency", meanB/1e3, meanA/1e3))

	// Reconciliation: the on-path self times telescope to the client
	// spans, so they must sum to the mean traced client latency.
	var sum int64
	for l := range numLayers {
		sum += st.self[l]
		if st.self[l] < 0 {
			r.checks = append(r.checks, fmt.Sprintf("trace: %s self time is negative (%.1f us per request)", l, us(st.self[l])))
		}
	}
	if st.orphans > 0 {
		r.checks = append(r.checks, fmt.Sprintf("trace: %d on-path spans have no recorded parent", st.orphans))
	}
	if sum != st.total[layerClient] {
		r.checks = append(r.checks, fmt.Sprintf("trace: self times sum to %.3f us, mean client latency is %.3f us", us(sum), us(st.total[layerClient])))
	}
	if n := t.cancellable.Load(); n > 0 {
		r.checks = append(r.checks, fmt.Sprintf("trace: %d traced round trips carried a cancellable context", n))
	}
	r.notes = append(r.notes,
		fmt.Sprintf("untraced: %d requests in %.1f s; traced: %d requests, %d spans (%d off the response path) in %s",
			a.requests, a.elapsed.Seconds(), st.count[layerClient], len(spans), st.offPath, filepath.Join(outDir, "spans-"+w.name+".csv")),
		fmt.Sprintf("reconciliation: front %.1f + monitor %.1f + osbinding %.1f + forwarder %.1f + httpkit %.1f + openstack %.1f + rtt %.1f + residual %.1f = %.1f us = mean client latency %.1f us",
			us(st.self[layerFront]), us(st.self[layerMonitor]), us(st.self[layerSnapshot]), us(st.self[layerForward]),
			us(st.self[layerRoundTrip]), us(st.self[layerCloud]), us(st.self[layerRTT]), us(st.self[layerClient]),
			us(sum), us(st.total[layerClient])))
	return r, nil
}

func prefixed(prefix string, lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = prefix + l
	}
	return out
}

func meanDuration(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s.d
	}
	return float64(sum) / float64(len(samples))
}

func formatOutcomes(m map[monitor.Outcome]int) string {
	keys := make([]monitor.Outcome, 0, len(m))
	for o := range m {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	s := ""
	for i, o := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d", o, m[o])
	}
	return s
}
