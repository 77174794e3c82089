// Package loadgen is the workload generator for the cloud monitor: it
// drives configurable concurrent request mixes — a role × method ×
// resource matrix over the volume API — through the monitor proxy (or
// straight at a cloud) and reports throughput, latency percentiles and
// monitor-verdict tallies.
//
// Generated REST stacks are only credible when load-tested like
// hand-written ones, and runtime contract monitors live or die on
// overhead: loadgen is both the proof harness (the -race soak and the
// Observe-mode zero-violation property run on top of it) and the
// measurement tool behind EXPERIMENTS.md E13.
//
// Two loop disciplines are supported:
//
//   - closed loop (Rate == 0): Clients workers issue requests
//     back-to-back; throughput is bounded by the system under test.
//   - open loop (Rate > 0): arrivals are scheduled at a fixed rate
//     independent of completions; latency is measured from the scheduled
//     arrival time, so queueing delay is charged to the system
//     (no coordinated omission).
package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/osclient"
)

// OpKind enumerates the workload operations (the method × resource axis of
// the matrix; the monitor's Cinder model exposes exactly these triggers).
type OpKind int

// Operations.
const (
	// OpGetVolume reads one volume (GET item).
	OpGetVolume OpKind = iota + 1
	// OpCreateVolume creates a volume (POST collection).
	OpCreateVolume
	// OpUpdateVolume renames a volume (PUT item).
	OpUpdateVolume
	// OpDeleteVolume deletes a volume (DELETE item).
	OpDeleteVolume
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpGetVolume:
		return "get-volume"
	case OpCreateVolume:
		return "create-volume"
	case OpUpdateVolume:
		return "update-volume"
	case OpDeleteVolume:
		return "delete-volume"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Roles of the paper's example deployment (Table I), plus the anonymous
// requester. A Target maps each role it supports to an auth token.
const (
	RoleAdmin     = "admin"
	RoleMember    = "member"
	RoleUser      = "user"
	RoleAnonymous = "anonymous"
)

// OpSpec is one cell of the workload matrix: an operation issued under a
// role, drawn with the given weight.
type OpSpec struct {
	Op     OpKind `json:"op"`
	Role   string `json:"role"`
	Weight int    `json:"weight"`
}

// Name labels the cell in reports, e.g. "get-volume/member".
func (s OpSpec) Name() string { return s.Op.String() + "/" + s.Role }

// Scenario is a named, reproducible workload.
type Scenario struct {
	// Name identifies the scenario in reports and the CLI.
	Name string
	// Description is a one-line summary for -list.
	Description string
	// Mix is the weighted role × operation matrix. Required.
	Mix []OpSpec
	// Clients is the number of concurrent workers (default 8).
	Clients int
	// Requests is the total request budget, warmup included. When zero,
	// the run is bounded by Duration instead.
	Requests int
	// Duration bounds the run when Requests is zero.
	Duration time.Duration
	// Warmup is the number of leading requests excluded from the latency
	// and throughput figures (they still reach the system under test).
	Warmup int
	// Rate switches to an open loop: scheduled arrivals per second.
	Rate float64
	// Seed makes the op draw deterministic per worker.
	Seed int64
	// Prepopulate creates this many volumes (as admin) before the run so
	// read and delete cells have targets (default 8).
	Prepopulate int
}

// Tenant is one project of a multi-tenant workload, with the per-role
// tokens scoped to it (OpenStack tokens are project-scoped, so each
// tenant authenticates separately).
type Tenant struct {
	// ProjectID is the tenant's project.
	ProjectID string
	// Tokens maps role name -> X-Auth-Token for this project. The
	// anonymous role maps to the empty token; roles absent from the map
	// are issued unauthenticated.
	Tokens map[string]string
}

// Target is the system under test: the monitor proxy (or a bare cloud)
// reachable through an HTTP client.
type Target struct {
	// BaseURL is the proxy's root URL.
	BaseURL string
	// HTTPClient performs the requests (httpkit.HandlerClient for
	// in-process runs; nil means http.DefaultClient).
	HTTPClient *http.Client
	// Tenants are the projects whose volume API the workload addresses
	// (at least one). With several, each request draws a tenant
	// uniformly, and every tenant keeps its own volume pool and role
	// clients; fleet runs route per project, so a multi-tenant workload
	// is what exercises the sharding.
	Tenants []Tenant
	// Outcomes, if set, supplies the monitor's outcome counters; Run
	// diffs it around the run to produce the report's verdict tallies.
	Outcomes func() map[monitor.Outcome]int
	// Faults, if set, supplies the fault injector's per-kind counters
	// (faults.Injector.Counts); Run diffs it around the run to report how
	// much chaos the run actually absorbed.
	Faults func() map[string]int
	// Stages, if set, supplies the per-pipeline-stage latency summaries
	// (Deployment.Stages); sampled after the run for the report's stage
	// breakdown.
	Stages func() map[string]obs.StageSummary
	// Audit, if set, supplies the audit sink's per-outcome record counts
	// (obs.AuditLog.Counts); Run diffs it around the run so the report's
	// audit tallies can be cross-checked against the verdict tallies.
	Audit func() map[string]int
	// Fetch, if set, supplies the cumulative fetch-economy counters
	// (monitor path fetches, coalesced flights, provider cloud GETs); Run
	// diffs it around the run — warmup requests included, prepopulation
	// excluded (it runs before the capture).
	Fetch func() FetchEconomy
	// Drain, if set, is called after the workers finish and before any
	// counters are sampled — async post-verification targets block here
	// until every deferred verdict is recorded, so verdict tallies still
	// sum to the request count.
	Drain func()
	// AsyncPost, if set, supplies the monitor's async post pipeline
	// counters (monitor.AsyncPostStats), sampled after the drain for the
	// report's lag percentiles and shed counts.
	AsyncPost func() monitor.AsyncPostStats
}

// FetchEconomy is the cloud-read cost of a run: how many state paths the
// monitor fetched, how many of those fetches were coalesced onto another
// request's in-flight read, and how many REST GETs actually hit the cloud.
type FetchEconomy struct {
	// Requests counts verdicts with fetch accounting.
	Requests int `json:"requests"`
	// PathsFetched is the total provider path reads across them.
	PathsFetched int `json:"paths_fetched"`
	// Coalesced counts fetches served by another request's in-flight read.
	Coalesced int `json:"coalesced"`
	// Waves counts pre-state Snapshot calls that carried several of a
	// clause's paths (monitor.FetchStats.Waves).
	Waves int `json:"waves"`
	// CloudGets counts the provider's REST GETs (before retries).
	CloudGets int `json:"cloud_gets"`
}

func (f FetchEconomy) sub(before FetchEconomy) FetchEconomy {
	return FetchEconomy{
		Requests:     f.Requests - before.Requests,
		PathsFetched: f.PathsFetched - before.PathsFetched,
		Coalesced:    f.Coalesced - before.Coalesced,
		Waves:        f.Waves - before.Waves,
		CloudGets:    f.CloudGets - before.CloudGets,
	}
}

// volumePool is the shared set of volume ids the workload operates on.
type volumePool struct {
	mu  sync.Mutex
	ids []string
}

func (p *volumePool) add(id string) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

// pick returns a random id without removing it.
func (p *volumePool) pick(r *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	return p.ids[r.Intn(len(p.ids))], true
}

// take removes and returns a random id.
func (p *volumePool) take(r *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	i := r.Intn(len(p.ids))
	id := p.ids[i]
	p.ids[i] = p.ids[len(p.ids)-1]
	p.ids = p.ids[:len(p.ids)-1]
	return id, true
}

// missingVolumeID addresses a never-existing volume when the pool is
// drained, keeping the request flowing (the monitor evaluates the contract
// over OclUndefined state, a workload worth exercising).
const missingVolumeID = "vol-missing"

// sample is one recorded request.
type sample struct {
	op      string
	status  int
	latency time.Duration
	err     bool
}

// recorder accumulates per-worker samples without shared locks.
type recorder struct {
	samples []sample
}

func (rec *recorder) record(op string, status int, d time.Duration, errored bool) {
	rec.samples = append(rec.samples, sample{op: op, status: status, latency: d, err: errored})
}

// Run executes the scenario against the target and builds the report.
func Run(sc Scenario, tgt Target) (*Report, error) {
	if len(sc.Mix) == 0 {
		return nil, fmt.Errorf("loadgen: scenario %q has an empty mix", sc.Name)
	}
	total := 0
	for _, cell := range sc.Mix {
		if cell.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: %s has non-positive weight %d", cell.Name(), cell.Weight)
		}
		total += cell.Weight
	}
	clients := sc.Clients
	if clients <= 0 {
		clients = 8
	}
	if sc.Requests <= 0 && sc.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: scenario %q needs a Requests or Duration bound", sc.Name)
	}
	tenants := tgt.Tenants
	if len(tenants) == 0 {
		return nil, fmt.Errorf("loadgen: target has no tenants")
	}

	// One volume pool per tenant: ops on a tenant only ever address its
	// own volumes, so a fleet's disjoint project ownership holds.
	pools := make([]*volumePool, len(tenants))
	for i := range pools {
		pools[i] = &volumePool{}
	}
	prepopulate := sc.Prepopulate
	if prepopulate == 0 {
		prepopulate = 8
	}
	// Every tenant gets the full prepopulation so read/delete cells have
	// targets regardless of how the mix lands across tenants.
	for ti, tn := range tenants {
		admin := tenantClient(tgt, tn, RoleAdmin)
		for i := 0; i < prepopulate; i++ {
			id, status, err := createVolume(admin, tn.ProjectID, fmt.Sprintf("seed-%d", i))
			if err != nil && status == 0 {
				return nil, fmt.Errorf("loadgen: prepopulate %s: %w", tn.ProjectID, err)
			}
			if id != "" {
				pools[ti].add(id)
			}
		}
	}

	if tgt.Drain != nil {
		// Prepopulation's deferred post verdicts must record before the
		// baseline counters are sampled, or they land inside the run diff.
		tgt.Drain()
	}
	var before map[monitor.Outcome]int
	if tgt.Outcomes != nil {
		before = tgt.Outcomes()
	}
	var faultsBefore map[string]int
	if tgt.Faults != nil {
		faultsBefore = tgt.Faults()
	}
	var auditBefore map[string]int
	if tgt.Audit != nil {
		auditBefore = tgt.Audit()
	}
	var fetchBefore FetchEconomy
	if tgt.Fetch != nil {
		fetchBefore = tgt.Fetch()
	}

	var (
		issued   atomic.Int64
		deadline time.Time
	)
	if sc.Duration > 0 {
		deadline = time.Now().Add(sc.Duration)
	}

	// In the open loop a dispatcher feeds scheduled arrival times to the
	// workers; zero value means closed loop (workers self-pace).
	var arrivals chan time.Time
	if sc.Rate > 0 {
		arrivals = make(chan time.Time, clients*4)
		go dispatch(arrivals, sc.Rate, sc.Requests, deadline)
	}

	recorders := make([]*recorder, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		rec := &recorder{}
		recorders[w] = rec
		go func(w int, rec *recorder) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(sc.Seed + int64(w)*7919))
			wk := worker{
				sc:      sc,
				tgt:     tgt,
				tenants: tenants,
				pools:   pools,
				rng:     rng,
				rec:     rec,
				clients: make(map[string]*osclient.Client),
				weights: sc.Mix,
				total:   total,
			}
			wk.loop(&issued, deadline, arrivals)
		}(w, rec)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if tgt.Drain != nil {
		// Deferred post verdicts must land before the counter diffs; the
		// drain is outside the timed window — detection lag is reported
		// separately, not folded into throughput.
		tgt.Drain()
	}

	var verdicts map[string]int
	if tgt.Outcomes != nil {
		after := tgt.Outcomes()
		verdicts = diffOutcomes(before, after)
	}
	var injected map[string]int
	if tgt.Faults != nil {
		injected = diffCounts(faultsBefore, tgt.Faults())
	}

	rep := buildReport(sc, clients, elapsed, recorders, verdicts)
	rep.InjectedFaults = injected
	if tgt.Audit != nil {
		rep.Audit = diffCounts(auditBefore, tgt.Audit())
	}
	if tgt.Stages != nil {
		rep.Stages = tgt.Stages()
	}
	if tgt.Fetch != nil {
		f := tgt.Fetch().sub(fetchBefore)
		rep.Fetch = &f
	}
	if tgt.AsyncPost != nil {
		if st := tgt.AsyncPost(); st.Enqueued > 0 || st.Shed > 0 {
			rep.AsyncPost = &AsyncPostReport{
				Enqueued:       st.Enqueued,
				Shed:           st.Shed,
				LateViolations: st.LateViolations,
				LagP50US:       us(st.Lag.Quantile(0.50)),
				LagP95US:       us(st.Lag.Quantile(0.95)),
				LagP99US:       us(st.Lag.Quantile(0.99)),
			}
		}
	}
	return rep, nil
}

// dispatch schedules open-loop arrivals at the configured rate until the
// budget or deadline is exhausted, then closes the channel.
func dispatch(arrivals chan<- time.Time, rate float64, budget int, deadline time.Time) {
	interval := time.Duration(float64(time.Second) / rate)
	next := time.Now()
	for i := 0; budget <= 0 || i < budget; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		arrivals <- next
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	close(arrivals)
}

// tenantClient builds a fresh osclient for the role within the tenant
// (empty token when the role is unknown — the anonymous requester).
func tenantClient(tgt Target, tn Tenant, role string) *osclient.Client {
	return &osclient.Client{BaseURL: tgt.BaseURL, Token: tn.Tokens[role], HTTPClient: tgt.HTTPClient}
}

// worker is one concurrent client of the run.
type worker struct {
	sc      Scenario
	tgt     Target
	tenants []Tenant
	pools   []*volumePool
	rng     *rand.Rand
	rec     *recorder
	// clients caches one osclient per (role, tenant) so workers never
	// share token state; keyed "role|project".
	clients map[string]*osclient.Client
	weights []OpSpec
	total   int
}

// client returns the worker's cached client for the role within tenant ti.
func (wk *worker) client(ti int, role string) *osclient.Client {
	key := role + "|" + wk.tenants[ti].ProjectID
	c, ok := wk.clients[key]
	if !ok {
		c = tenantClient(wk.tgt, wk.tenants[ti], role)
		wk.clients[key] = c
	}
	return c
}

// loop issues requests until the budget, deadline or arrival stream ends.
func (wk *worker) loop(issued *atomic.Int64, deadline time.Time, arrivals <-chan time.Time) {
	for {
		var arrival time.Time
		if arrivals != nil {
			t, ok := <-arrivals
			if !ok {
				return
			}
			arrival = t
		}
		n := issued.Add(1)
		if wk.sc.Requests > 0 && n > int64(wk.sc.Requests) {
			return
		}
		if arrivals == nil && !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		cell := wk.pickOp()
		start := time.Now()
		status, err := wk.exec(cell)
		end := time.Now()
		latency := end.Sub(start)
		if arrivals != nil {
			// Open loop: charge queueing from the scheduled arrival.
			latency = end.Sub(arrival)
		}
		if int(n) > wk.sc.Warmup {
			wk.rec.record(cell.Name(), status, latency, err != nil && status == 0)
		}
	}
}

// pickOp draws a matrix cell by weight.
func (wk *worker) pickOp() OpSpec {
	n := wk.rng.Intn(wk.total)
	for _, cell := range wk.weights {
		n -= cell.Weight
		if n < 0 {
			return cell
		}
	}
	return wk.weights[len(wk.weights)-1]
}

// exec issues one request. A non-zero status with a *osclient.StatusError
// is a measured response (the monitor blocking a forbidden request is the
// workload behaving), not an error; only transport failures count as
// errors.
func (wk *worker) exec(cell OpSpec) (int, error) {
	ti := 0
	if len(wk.tenants) > 1 {
		ti = wk.rng.Intn(len(wk.tenants))
	}
	c := wk.client(ti, cell.Role)
	pid := wk.tenants[ti].ProjectID
	pool := wk.pools[ti]
	switch cell.Op {
	case OpGetVolume:
		id, ok := pool.pick(wk.rng)
		if !ok {
			id = missingVolumeID
		}
		return c.Do(http.MethodGet, "/projects/"+pid+"/volumes/"+id, nil, nil, nil)
	case OpCreateVolume:
		id, status, err := createVolume(c, pid, fmt.Sprintf("load-%d", wk.rng.Int63()))
		if id != "" {
			pool.add(id)
		}
		return status, err
	case OpUpdateVolume:
		id, ok := pool.pick(wk.rng)
		if !ok {
			id = missingVolumeID
		}
		in := map[string]map[string]any{"volume": {"name": fmt.Sprintf("ren-%d", wk.rng.Int63())}}
		return c.Do(http.MethodPut, "/projects/"+pid+"/volumes/"+id, in, nil, nil)
	case OpDeleteVolume:
		id, ok := pool.take(wk.rng)
		if !ok {
			id = missingVolumeID
		}
		status, err := c.Do(http.MethodDelete, "/projects/"+pid+"/volumes/"+id, nil, nil, nil)
		if err != nil && id != missingVolumeID {
			// The delete did not go through: keep the volume reachable.
			pool.add(id)
		}
		return status, err
	}
	return 0, fmt.Errorf("loadgen: unknown op %v", cell.Op)
}

// createVolume posts to the volume collection through the target and
// returns the created id (empty when the request was rejected or blocked).
func createVolume(c *osclient.Client, projectID, name string) (string, int, error) {
	in := map[string]map[string]any{"volume": {"name": name, "size": 1}}
	var out struct {
		Volume struct {
			ID string `json:"id"`
		} `json:"volume"`
	}
	status, err := c.Do(http.MethodPost, "/projects/"+projectID+"/volumes", in, &out, nil)
	if err != nil {
		return "", status, err
	}
	return out.Volume.ID, status, nil
}

// diffOutcomes subtracts the before counters from the after counters.
func diffOutcomes(before, after map[monitor.Outcome]int) map[string]int {
	out := make(map[string]int)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k.String()] = d
		}
	}
	return out
}

// diffCounts subtracts string-keyed counters (fault tallies).
func diffCounts(before, after map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
