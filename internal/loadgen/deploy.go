package loadgen

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/faults"
	"cloudmon/internal/fleet"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// quotaVolumes is every seeded project's volume quota: high enough that
// the workload never trips the quota pre-conditions.
const quotaVolumes = 1000000

// Options configures an in-process deployment: one simulated cloud and
// either one monitor the clients call directly or a fleet of monitors
// behind a consistent-hash front.
type Options struct {
	// Monitor holds every instance's monitor knobs (mode, check level,
	// fail policy, post mode, cloud timeout, OnVerdict). Deploy owns and
	// overwrites Model, CloudURL, ServiceAccount, HTTPClient, Audit and
	// InstanceID.
	Monitor core.Options
	// Instances is the fleet size. 0 deploys one monitor with instance id
	// "" that the clients call directly; N ≥ 1 deploys N members,
	// "m-00" to "m-<N-1>", behind the front.
	Instances int
	// TenantCount is the number of tenant projects a fleet's workload
	// spreads across (default 4 × Instances — enough keys for the balance
	// and remap properties to hold statistically). A lone monitor serves
	// the one seeded project.
	TenantCount int
	// RTT simulates a network round trip on every monitor→cloud request
	// (0 = in-process speed) — the latency-bound regime horizontal
	// sharding is for.
	RTT time.Duration
	// Conns bounds each instance's concurrent backend connections
	// (0 = unlimited) — the per-process connection budget that caps one
	// instance's throughput regardless of offered load.
	Conns int
	// Faults, when non-nil, injects this fault profile into all
	// monitor->cloud traffic (snapshots and forwards) — chaos runs.
	// Role authentication at deploy time bypasses the injector, so a
	// hostile profile cannot fail the deployment itself.
	Faults *faults.Profile
	// AuditDir, when non-empty, opens an obs.AuditLog per instance: a
	// lone monitor writes its trail to AuditDir itself, a fleet member to
	// the subdirectory named after its id. Every violation and Unverified
	// outcome lands in the trail; Close the Deployment to flush it.
	AuditDir string
}

// Instance is one monitor of a deployment.
type Instance struct {
	// ID is the instance id ("" for a lone monitor; "m-00", "m-01", ...
	// in a fleet). Audit records carry it, and a fleet member's metrics
	// carry it as the instance= constant label.
	ID string
	// Sys is the instance's assembled pipeline.
	Sys *core.System
	// Audit is the instance's audit sink (nil without AuditDir).
	Audit *obs.AuditLog
}

// Deployment is a ready-to-drive in-process deployment: drive Target
// with Run, resize a fleet mid-run with Resize, and verify with the
// aggregate accessors.
type Deployment struct {
	// Instances are the monitors in id order. A fleet builds all of them
	// up front; Resize selects how many the ring routes to.
	Instances []*Instance
	// Front is the fleet's routing tier (nil for a lone monitor);
	// Target.HTTPClient drives it in process.
	Front *fleet.Front
	// Tenants are the seeded projects the workload addresses, with
	// per-role tokens.
	Tenants []Tenant
	// Target drives the front, or the lone monitor directly.
	Target Target
	// Injector is the shared fault injector (nil without Faults).
	Injector *faults.Injector

	frontMetrics *obs.Registry
	members      []*fleet.Member
}

// Deploy builds the paper's example deployment in process: the simulated
// cloud seeded with Table I's role groups and one user per role, one
// client token per role and tenant, and the monitor instances over it —
// each with its own transport chain to the cloud, async-post queue,
// metric registry and audit trail.
func Deploy(opts Options) (*Deployment, error) {
	if opts.Instances < 0 {
		return nil, fmt.Errorf("loadgen: deploy: negative instance count %d", opts.Instances)
	}
	if opts.Instances == 0 && opts.TenantCount > 0 {
		return nil, fmt.Errorf("loadgen: deploy: TenantCount needs a fleet (Instances ≥ 1)")
	}
	const cloudURL = "http://cloud.internal"
	quota := cinder.QuotaSet{Volumes: quotaVolumes, Gigabytes: 1 << 30}
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "loadgen",
		Quota:       quota,
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})

	// A lone monitor serves the seeded project. A fleet's workload
	// spreads over tenant projects with the same quota and group→role
	// grants, so routing by project has keys to shard.
	projects := []string{seed.ProjectID}
	if opts.Instances > 0 {
		n := opts.TenantCount
		if n <= 0 {
			n = 4 * opts.Instances
		}
		projects = make([]string, n)
		for i := range projects {
			proj := cloud.Identity.CreateProject(fmt.Sprintf("tenant-%02d", i))
			cloud.Volumes.SetQuota(proj.ID, quota)
			for group, role := range paper.GroupRole() {
				cloud.Identity.AssignRole(proj.ID, group, role)
			}
			projects[i] = proj.ID
		}
	}
	// OpenStack tokens are project-scoped: one token per role per tenant.
	tenants := make([]Tenant, len(projects))
	auth := osclient.Client{BaseURL: cloudURL, HTTPClient: httpkit.HandlerClient(cloud)}
	for i, pid := range projects {
		tokens := map[string]string{RoleAnonymous: ""}
		for role, user := range map[string]string{RoleAdmin: "alice", RoleMember: "bob", RoleUser: "carol"} {
			tok, err := auth.Authenticate(user, "pw", pid)
			if err != nil {
				return nil, fmt.Errorf("loadgen: deploy: authenticate %s@%s: %w", user, pid, err)
			}
			tokens[role] = tok
		}
		tenants[i] = Tenant{ProjectID: pid, Tokens: tokens}
	}

	var inj *faults.Injector
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: deploy: %w", err)
		}
		inj = faults.NewInjector(opts.Faults)
	}

	d := &Deployment{Tenants: tenants, Injector: inj}

	for i := 0; i < max(opts.Instances, 1); i++ {
		id, auditDir := "", opts.AuditDir
		if opts.Instances > 0 {
			id = fmt.Sprintf("m-%02d", i)
			if auditDir != "" {
				auditDir = filepath.Join(auditDir, id)
			}
		}

		// Shared-nothing cloud path per instance: fault injection (shared
		// counters), simulated RTT, then the instance's connection budget
		// outermost so a slot is held for the whole round trip.
		rt := httpkit.HandlerRoundTripper(cloud)
		if inj != nil {
			rt = inj.RoundTripper(rt)
		}
		if opts.RTT > 0 {
			rt = delayTripper{next: rt, d: opts.RTT}
		}
		if opts.Conns > 0 {
			rt = newBudgetTripper(rt, opts.Conns)
		}

		var audit *obs.AuditLog
		if auditDir != "" {
			var err error
			if audit, err = obs.OpenAuditLog(auditDir, obs.DefaultAuditMaxBytes); err != nil {
				d.Close()
				return nil, fmt.Errorf("loadgen: deploy: %w", err)
			}
		}

		mo := opts.Monitor
		mo.Model = paper.CinderModel()
		mo.CloudURL = cloudURL
		mo.ServiceAccount = osbinding.ServiceAccount{User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID}
		mo.HTTPClient = &http.Client{Transport: rt}
		mo.Audit = audit
		mo.InstanceID = id
		sys, err := core.Build(mo)
		if err != nil {
			if audit != nil {
				audit.Close()
			}
			d.Close()
			return nil, fmt.Errorf("loadgen: deploy: %w", err)
		}
		d.Instances = append(d.Instances, &Instance{ID: id, Sys: sys, Audit: audit})
		if opts.Instances > 0 {
			d.members = append(d.members, &fleet.Member{
				ID:      id,
				Proxy:   sys.Monitor,
				Metrics: func() (string, error) { return sys.Metrics.Render(), nil },
			})
		}
	}

	d.Target = Target{
		BaseURL:    "http://monitor.internal",
		HTTPClient: httpkit.HandlerClient(d.Instances[0].Sys.Monitor),
		Tenants:    tenants,
		Outcomes:   d.Outcomes,
		Stages:     d.Stages,
		Fetch:      d.FetchEconomy,
	}
	if opts.Instances > 0 {
		front, err := fleet.NewFront(d.members)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("loadgen: deploy: %w", err)
		}
		d.Front = front
		d.frontMetrics = &obs.Registry{}
		front.RegisterMetrics(d.frontMetrics)
		d.Target.BaseURL = "http://fleet.internal"
		d.Target.HTTPClient = httpkit.HandlerClient(front)
	}
	if inj != nil {
		d.Target.Faults = inj.Counts
	}
	if opts.Monitor.Post == monitor.PostAsync {
		d.Target.Drain = d.Drain
		d.Target.AsyncPost = d.AsyncPostStats
	}
	if opts.AuditDir != "" {
		d.Target.Audit = d.AuditCounts
	}
	return d, nil
}

// Resize re-rings a fleet's front over the first n instances. All
// instances stay alive; only routing changes. Growing past the built
// fleet, or resizing a lone monitor, is an error.
func (d *Deployment) Resize(n int) error {
	if n < 1 || n > len(d.members) {
		return fmt.Errorf("loadgen: resize to %d, have %d fleet members", n, len(d.members))
	}
	return d.Front.Resize(d.members[:n])
}

// Outcomes sums the verdict tallies across all instances — with disjoint
// project ownership every request is judged exactly once, so the sum is
// the deployment's verdict ledger.
func (d *Deployment) Outcomes() map[monitor.Outcome]int {
	out := make(map[monitor.Outcome]int)
	for _, in := range d.Instances {
		for k, v := range in.Sys.Monitor.Outcomes() {
			out[k] += v
		}
	}
	return out
}

// AuditCounts sums the per-outcome audit record tallies across the
// instances' trails.
func (d *Deployment) AuditCounts() map[string]int {
	out := make(map[string]int)
	for _, in := range d.Instances {
		if in.Audit == nil {
			continue
		}
		for k, v := range in.Audit.Counts() {
			out[k] += int(v)
		}
	}
	return out
}

// FetchEconomy sums the fetch-economy counters across instances.
func (d *Deployment) FetchEconomy() FetchEconomy {
	var fe FetchEconomy
	for _, in := range d.Instances {
		fs := in.Sys.Monitor.FetchStats()
		fe.Requests += int(fs.Requests)
		fe.PathsFetched += int(fs.PathsFetched)
		fe.Waves += int(fs.Waves)
		fe.CloudGets += int(in.Sys.Provider.Stats().Gets)
	}
	return fe
}

// Stages merges the instances' per-stage latency histograms bucket-wise
// (every instance uses the same bounds) into one summary per stage that
// saw at least one request.
func (d *Deployment) Stages() map[string]obs.StageSummary {
	out := make(map[string]obs.StageSummary)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		var merged obs.HistSnapshot
		for _, in := range d.Instances {
			merged = mergeHist(merged, in.Sys.Monitor.Tracer().Stage(s).Snapshot())
		}
		if merged.Count > 0 {
			out[s.String()] = obs.SummarizeHistogram(merged)
		}
	}
	return out
}

// Drain blocks until every instance's async post queue is empty.
func (d *Deployment) Drain() {
	for _, in := range d.Instances {
		in.Sys.Monitor.DrainPost()
	}
}

// AsyncPostStats aggregates the async post counters across instances.
// Scalars sum; the lag histograms merge bucket-wise.
func (d *Deployment) AsyncPostStats() monitor.AsyncPostStats {
	var agg monitor.AsyncPostStats
	for _, in := range d.Instances {
		st := in.Sys.Monitor.AsyncPostStats()
		agg.Enqueued += st.Enqueued
		agg.LateViolations += st.LateViolations
		agg.FenceWaits += st.FenceWaits
		agg.Pending += st.Pending
		agg.Lag = mergeHist(agg.Lag, st.Lag)
	}
	return agg
}

// Metrics renders the deployment's merged exposition: the front's own
// counters (fleets only) plus every instance's registry, one header per
// metric family — what a fleet front's federation endpoint serves.
func (d *Deployment) Metrics() string {
	var docs []string
	if d.frontMetrics != nil {
		docs = append(docs, d.frontMetrics.Render())
	}
	for _, in := range d.Instances {
		docs = append(docs, in.Sys.Metrics.Render())
	}
	return obs.MergeExpositions(docs...)
}

// Close drains every instance (async verdicts land) and closes the audit
// sinks. Safe on a partially built deployment.
func (d *Deployment) Close() error {
	for _, in := range d.Instances {
		in.Sys.Monitor.Close()
	}
	var firstErr error
	for _, in := range d.Instances {
		if in.Audit != nil {
			if err := in.Audit.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	if len(a.Counts) != len(b.Counts) {
		// Mismatched shapes cannot merge bucket-wise; keep the larger
		// population's distribution but account for every observation.
		if b.Count > a.Count {
			a, b = b, a
		}
		a.Sum += b.Sum
		a.Count += b.Count
		return a
	}
	merged := obs.HistSnapshot{
		Bounds: a.Bounds,
		Counts: make([]uint64, len(a.Counts)),
		Sum:    a.Sum + b.Sum,
		Count:  a.Count + b.Count,
	}
	for i := range merged.Counts {
		merged.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return merged
}

// delayTripper charges a fixed simulated network round trip to every
// monitor→cloud request.
type delayTripper struct {
	next http.RoundTripper
	d    time.Duration
}

func (t delayTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(t.d)
	return t.next.RoundTrip(r)
}

// budgetTripper bounds an instance's concurrent backend connections —
// the per-process limit that makes one instance's throughput plateau and
// horizontal sharding pay off.
type budgetTripper struct {
	next  http.RoundTripper
	slots chan struct{}
}

func newBudgetTripper(next http.RoundTripper, n int) *budgetTripper {
	return &budgetTripper{next: next, slots: make(chan struct{}, n)}
}

func (t *budgetTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	t.slots <- struct{}{}
	defer func() { <-t.slots }()
	return t.next.RoundTrip(r)
}
