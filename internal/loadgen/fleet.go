package loadgen

import (
	"fmt"
	"net/http"
	"os"
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

// FleetOptions configures an in-process sharded deployment: one simulated
// cloud, N monitor instances with disjoint project ownership, and a
// routing front tier.
type FleetOptions struct {
	// DeployOptions carries the per-instance monitor knobs (fail policy,
	// post mode, cache TTL, faults, ...). AuditDir, when set,
	// is the fleet root: each instance writes its trail to a subdirectory
	// named after its id.
	DeployOptions
	// Instances is the fleet size N (required, ≥ 1).
	Instances int
	// TenantCount is the number of tenant projects K the workload spreads
	// across (default 4 × Instances — enough keys for the balance and
	// remap properties to hold statistically).
	TenantCount int
	// RTT simulates a network round trip on every monitor→cloud request
	// (0 = in-process speed). This is what makes single-instance runs
	// latency-bound, the regime horizontal sharding is for.
	RTT time.Duration
	// Conns bounds each instance's concurrent backend connections
	// (0 = unlimited) — the per-process connection budget that caps one
	// instance's throughput regardless of offered load.
	Conns int
}

// FleetInstance is one monitor of the fleet.
type FleetInstance struct {
	// ID is the instance id ("m-00", "m-01", ...).
	ID string
	// Sys is the instance's assembled pipeline; Sys.Metrics carries the
	// instance= constant label.
	Sys *core.System
	// Bus is the instance's invalidation fan-out.
	Bus *fleet.Bus
	// Audit is the instance's audit sink (nil without AuditDir).
	Audit *obs.AuditLog
	// AuditDir is the instance's audit subdirectory ("" without AuditDir).
	AuditDir string
}

// FleetDeployment is a ready-to-drive sharded deployment: drive
// Target (which routes through Front) with Run, resize mid-run with
// Resize, and verify with the aggregate accessors.
type FleetDeployment struct {
	// Cloud is the single simulated OpenStack deployment shared by all
	// instances (the shared-nothing property is about monitor state, not
	// the cloud under observation).
	Cloud *openstack.Cloud
	// Front is the routing tier; Target.HTTPClient drives it in-process.
	Front *fleet.Front
	// FrontRegistry holds the front's own counters (requests, routed,
	// remaps, fence waits).
	FrontRegistry *obs.Registry
	// Instances are the fleet members, in id order. All of them are
	// built up front; Resize selects how many the ring routes to.
	Instances []*FleetInstance
	// Tenants are the seeded tenant projects with per-role tokens.
	Tenants []Tenant
	// Target drives the front with the multi-tenant workload.
	Target Target
	// Injector is the shared fault injector (nil without Faults).
	Injector *faults.Injector

	members []*fleet.Member
	byID    map[string]*fleet.Member
}

// DeployFleet seeds one cloud with K tenant projects, builds N monitor
// instances over it (each with its own pre-state cache, flight groups,
// async-post queue, metric registry and audit segment), and assembles the
// consistent-hash front over them.
func DeployFleet(opts FleetOptions) (*FleetDeployment, error) {
	if opts.Instances < 1 {
		return nil, fmt.Errorf("loadgen: fleet needs at least one instance, got %d", opts.Instances)
	}
	tenantCount := opts.TenantCount
	if tenantCount <= 0 {
		tenantCount = 4 * opts.Instances
	}
	quota := opts.QuotaVolumes
	if quota <= 0 {
		quota = 1000000
	}

	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "loadgen",
		Quota:       cinder.QuotaSet{Volumes: quota, Gigabytes: 1 << 30},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	cloudHTTP := httpkit.HandlerClient(cloud)

	// Seed the tenant projects: same quota and group→role grants as the
	// base project, then one token per role per tenant (OpenStack tokens
	// are project-scoped).
	tenants := make([]Tenant, tenantCount)
	for i := range tenants {
		proj := cloud.Identity.CreateProject(fmt.Sprintf("tenant-%02d", i))
		cloud.Volumes.SetQuota(proj.ID, cinder.QuotaSet{Volumes: quota, Gigabytes: 1 << 30})
		for group, role := range paper.GroupRole() {
			cloud.Identity.AssignRole(proj.ID, group, role)
		}
		tokens := map[string]string{RoleAnonymous: ""}
		for role, user := range map[string]string{RoleAdmin: "alice", RoleMember: "bob", RoleUser: "carol"} {
			auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
			tok, err := auth.Authenticate(user, "pw", proj.ID)
			if err != nil {
				return nil, fmt.Errorf("loadgen: fleet: authenticate %s@%s: %w", user, proj.ID, err)
			}
			tokens[role] = tok
		}
		tenants[i] = Tenant{ProjectID: proj.ID, Tokens: tokens}
	}

	var inj *faults.Injector
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: fleet: %w", err)
		}
		inj = faults.NewInjector(opts.Faults)
	}

	d := &FleetDeployment{
		Cloud:    cloud,
		Tenants:  tenants,
		Injector: inj,
		byID:     map[string]*fleet.Member{},
	}
	// The bus closures read the deployment's front, which exists only
	// after all members are built — late binding breaks the cycle.
	ringView := func() *fleet.Ring {
		if d.Front == nil {
			return nil
		}
		return d.Front.Ring()
	}
	memberView := func(id string) *fleet.Member { return d.byID[id] }

	for i := 0; i < opts.Instances; i++ {
		id := fmt.Sprintf("m-%02d", i)

		// Shared-nothing cloud path per instance: fault injection (shared
		// counters), simulated RTT, then the instance's connection budget
		// outermost so a slot is held for the whole round trip.
		var rt http.RoundTripper = httpkit.HandlerRoundTripper(cloud)
		if inj != nil {
			rt = inj.RoundTripper(rt)
		}
		if opts.RTT > 0 {
			rt = delayTripper{next: rt, d: opts.RTT}
		}
		if opts.Conns > 0 {
			rt = newBudgetTripper(rt, opts.Conns)
		}
		monitorHTTP := &http.Client{Transport: rt}

		var audit *obs.AuditLog
		auditDir := ""
		if opts.AuditDir != "" {
			auditDir = filepath.Join(opts.AuditDir, id)
			if err := os.MkdirAll(auditDir, 0o755); err != nil {
				d.Close()
				return nil, fmt.Errorf("loadgen: fleet: %w", err)
			}
			var err error
			audit, err = obs.OpenAuditLog(auditDir, opts.AuditMaxBytes)
			if err != nil {
				d.Close()
				return nil, fmt.Errorf("loadgen: fleet: %w", err)
			}
		}

		bus := &fleet.Bus{Self: id, Ring: ringView, Member: memberView, Retry: opts.Retry}
		sys, err := core.Build(core.Options{
			Model:    paper.CinderModel(),
			CloudURL: "http://cloud.internal",
			ServiceAccount: osbinding.ServiceAccount{
				User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
			},
			InstanceID:       id,
			OnInvalidate:     bus.OnInvalidate,
			Mode:             opts.Mode,
			Level:            opts.Level,
			FailPolicy:       opts.FailPolicy,
			Post:             opts.Post,
			PostQueueCap:     opts.PostQueueCap,
			PostWorkers:      opts.PostWorkers,
			PostBackpressure: opts.PostBackpressure,
			CloudTimeout:     opts.CloudTimeout,
			Retry:            opts.Retry,
			Breaker:          opts.Breaker,
			PreStateCacheTTL: opts.PreStateCacheTTL,
			DegradeTTL:       opts.DegradeTTL,
			MaxLog:           opts.MaxLog,
			HTTPClient:       monitorHTTP,
			Audit:            audit,
		})
		if err != nil {
			if audit != nil {
				audit.Close()
			}
			d.Close()
			return nil, fmt.Errorf("loadgen: fleet: build %s: %w", id, err)
		}
		bus.RegisterMetrics(sys.Metrics)

		// Bump delivery goes over the real wire format: an in-process HTTP
		// client against the instance's invalidate endpoint.
		inspect := http.NewServeMux()
		inspect.Handle(fleet.InvalidatePath, fleet.InvalidateHandler(sys.Monitor))
		busHTTP := httpkit.HandlerClient(inspect)
		busBase := "http://" + id + ".internal"

		mon := sys.Monitor
		reg := sys.Metrics
		member := &fleet.Member{
			ID:    id,
			Proxy: mon,
			Metrics: func() (string, error) {
				return reg.Render(), nil
			},
			Invalidate: func(project string) error {
				return fleet.PostInvalidate(busHTTP, busBase, project)
			},
		}
		d.members = append(d.members, member)
		d.byID[id] = member
		d.Instances = append(d.Instances, &FleetInstance{
			ID: id, Sys: sys, Bus: bus, Audit: audit, AuditDir: auditDir,
		})
	}

	front, err := fleet.NewFront(d.members)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("loadgen: fleet: %w", err)
	}
	d.Front = front
	d.FrontRegistry = &obs.Registry{}
	front.RegisterMetrics(d.FrontRegistry)

	tgt := Target{
		BaseURL:    "http://fleet.internal",
		HTTPClient: httpkit.HandlerClient(front),
		Tenants:    tenants,
		Outcomes:   d.Outcomes,
		Fetch:      d.FetchEconomy,
		Audit:      nil,
	}
	if inj != nil {
		tgt.Faults = inj.Counts
	}
	if opts.Post == monitor.PostAsync {
		tgt.Drain = d.Drain
		tgt.AsyncPost = d.AsyncPostStats
	}
	if opts.AuditDir != "" {
		tgt.Audit = d.AuditCounts
	}
	d.Target = tgt
	return d, nil
}

// Resize re-rings the front over the first n instances. All instances
// stay alive (their buses keep forwarding bumps for projects they no
// longer own); only routing changes. Growing past the built fleet is an
// error.
func (d *FleetDeployment) Resize(n int) error {
	if n < 1 || n > len(d.members) {
		return fmt.Errorf("loadgen: fleet resize to %d, have %d instances", n, len(d.members))
	}
	return d.Front.Resize(d.members[:n])
}

// Outcomes sums the verdict tallies across all instances — with disjoint
// project ownership every request is judged exactly once, so the sum is
// the fleet verdict ledger.
func (d *FleetDeployment) Outcomes() map[monitor.Outcome]int {
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
func (d *FleetDeployment) AuditCounts() map[string]int {
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
func (d *FleetDeployment) FetchEconomy() FetchEconomy {
	var fe FetchEconomy
	for _, in := range d.Instances {
		fs := in.Sys.Monitor.FetchStats()
		fe.Requests += int(fs.Requests)
		fe.PathsFetched += int(fs.PathsFetched)
		fe.Coalesced += int(fs.Coalesced)
		fe.Waves += int(fs.Waves)
		fe.CloudGets += int(in.Sys.Provider.Stats().Gets)
	}
	return fe
}

// Drain blocks until every instance's async post queue is empty and every
// in-flight invalidation bump has been delivered or dropped.
func (d *FleetDeployment) Drain() {
	for _, in := range d.Instances {
		in.Sys.Monitor.DrainPost()
	}
	for _, in := range d.Instances {
		in.Bus.Wait()
	}
}

// AsyncPostStats aggregates the async post counters across instances.
// Scalars sum; the lag histograms merge bucket-wise (every instance uses
// the same bounds).
func (d *FleetDeployment) AsyncPostStats() monitor.AsyncPostStats {
	var agg monitor.AsyncPostStats
	for _, in := range d.Instances {
		st := in.Sys.Monitor.AsyncPostStats()
		agg.Enqueued += st.Enqueued
		agg.Shed += st.Shed
		agg.LateViolations += st.LateViolations
		agg.FenceWaits += st.FenceWaits
		agg.Pending += st.Pending
		agg.Lag = mergeHist(agg.Lag, st.Lag)
	}
	return agg
}

// FederatedMetrics renders the fleet's merged exposition: the front's own
// counters plus every instance scrape, one header per metric family.
func (d *FleetDeployment) FederatedMetrics() (string, error) {
	docs := []string{d.FrontRegistry.Render()}
	for _, in := range d.Instances {
		docs = append(docs, in.Sys.Metrics.Render())
	}
	return obs.MergeExpositions(docs...), nil
}

// Close drains every instance (async verdicts and bus bumps land) and
// closes the audit sinks. Safe on a partially built deployment.
func (d *FleetDeployment) Close() error {
	var firstErr error
	for _, in := range d.Instances {
		if in.Sys != nil && in.Sys.Monitor != nil {
			in.Sys.Monitor.Close()
		}
		if in.Bus != nil {
			in.Bus.Wait()
		}
	}
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
