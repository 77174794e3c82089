package loadgen

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
)

// fleetScenario is the soak matrix sized for fleet runs: every verdict
// class, multi-tenant draw handled by Target.Tenants.
func fleetScenario(clients, requests int) Scenario {
	sc := soakScenario(clients, requests)
	sc.Name = "fleet-soak"
	sc.Warmup = 0 // keep verdict tallies equal to the request count
	sc.Prepopulate = 4
	return sc
}

// runFleet deploys a fleet, drives the mixed matrix through the front,
// and sweeps every instance's verdict log with the single-instance
// invariant checker. Under -race this is the concurrency proof for the
// front's fence and the per-instance pipelines together.
func runFleet(t *testing.T, opts Options, requests int) (*Deployment, *Report) {
	t.Helper()
	opts.Monitor.Mode = monitor.Enforce
	opts.Monitor.MaxLog = requests + 1024
	dep, err := Deploy(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	rep, err := Run(fleetScenario(16, requests), dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("%d transport errors through the front", rep.Errors)
	}
	for _, in := range dep.Instances {
		checkVerdictInvariants(t, in.Sys.Monitor.Log(), monitor.Enforce, opts.Monitor.FailPolicy)
	}
	return dep, rep
}

// TestFleetVerdictConservation: a steady 3-instance fleet judges every
// request exactly once — the per-instance verdict tallies sum to the
// request count, routing is remap-free, and the federated exposition
// carries every instance.
func TestFleetVerdictConservation(t *testing.T) {
	requests := 2400
	if testing.Short() {
		requests = 800
	}
	dep, rep := runFleet(t, Options{Instances: 3, TenantCount: 12}, requests)

	total := 0
	for _, n := range rep.Verdicts {
		total += n
	}
	if total != requests {
		t.Errorf("fleet verdicts sum to %d, want %d (every request judged exactly once)", total, requests)
	}

	st := dep.Front.Stats()
	if st.Remaps != 0 {
		t.Errorf("steady run recorded %d remaps, want 0 (stable per-project routing)", st.Remaps)
	}
	if st.Projects != len(dep.Tenants) {
		t.Errorf("front saw %d projects, want %d", st.Projects, len(dep.Tenants))
	}
	served := uint64(0)
	for _, n := range st.Routed {
		served += n
	}
	if served != st.Requests {
		t.Errorf("per-instance routed counts sum to %d, front counted %d", served, st.Requests)
	}

	// Every tenant's requests landed on its ring owner, and at least two
	// instances took traffic (the workload actually sharded).
	ring := dep.Front.Ring()
	owners := dep.Front.Owners()
	busy := map[string]bool{}
	for project, owner := range owners {
		if want := ring.Owner(project); owner != want {
			t.Errorf("project %s owned by %s, ring says %s", project, owner, want)
		}
		busy[owner] = true
	}
	if len(busy) < 2 {
		t.Errorf("only %d instances took traffic across %d tenants", len(busy), len(dep.Tenants))
	}

	// The federated exposition parses, one header per family, and carries
	// each instance's verdict counters under its instance label.
	samples, err := obs.ParseText([]byte(dep.Metrics()))
	if err != nil {
		t.Fatalf("federated exposition does not parse: %v", err)
	}
	perInstance := map[string]float64{}
	for _, s := range obs.Find(samples, "cloudmon_verdicts_total") {
		perInstance[s.Labels["instance"]] += s.Value
	}
	for _, in := range dep.Instances {
		want := 0
		for _, n := range in.Sys.Monitor.Outcomes() {
			want += n
		}
		if got := int(perInstance[in.ID]); got != want {
			t.Errorf("federation reports %d verdicts for %s, instance counters say %d", got, in.ID, want)
		}
	}
	if got := obs.Find(samples, "fleet_requests_total"); len(got) != 1 {
		t.Errorf("front counters missing from federation: %v", got)
	}
}

// TestFleetResizeRemap: a concurrent run survives a mid-run 3→4 resize
// with zero transport errors, verdict conservation, and only the moved
// projects remapped.
func TestFleetResizeRemap(t *testing.T) {
	requests := 2400
	if testing.Short() {
		requests = 1200
	}
	dep, err := Deploy(Options{
		Monitor:     core.Options{Mode: monitor.Enforce, MaxLog: requests + 1024},
		Instances:   4,
		TenantCount: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if err := dep.Resize(3); err != nil {
		t.Fatal(err)
	}
	oldRing := dep.Front.Ring()

	// Trigger the grow-by-one a third of the way into the run, from a
	// worker goroutine — exactly how a production resize lands.
	var count atomic.Int64
	var once sync.Once
	tgt := dep.Target
	inner := tgt.HTTPClient.Transport
	tgt.HTTPClient = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if count.Add(1) == int64(requests/3) {
			once.Do(func() {
				if err := dep.Resize(4); err != nil {
					t.Errorf("resize: %v", err)
				}
			})
		}
		return inner.RoundTrip(r)
	})}

	rep, err := Run(fleetScenario(16, requests), tgt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("%d transport errors across the resize", rep.Errors)
	}
	total := 0
	for _, n := range rep.Verdicts {
		total += n
	}
	if total != requests {
		t.Errorf("fleet verdicts sum to %d, want %d — requests dropped or double-judged", total, requests)
	}
	for _, in := range dep.Instances {
		checkVerdictInvariants(t, in.Sys.Monitor.Log(), monitor.Enforce, 0)
	}

	newRing := dep.Front.Ring()
	if newRing.Size() != 4 {
		t.Fatalf("ring size %d after resize", newRing.Size())
	}
	moved := 0
	for _, tn := range dep.Tenants {
		if oldRing.Owner(tn.ProjectID) != newRing.Owner(tn.ProjectID) {
			moved++
		}
	}
	st := dep.Front.Stats()
	if st.Remaps == 0 {
		t.Error("resize recorded no remaps — the new instance took nothing over")
	}
	if int(st.Remaps) > moved {
		t.Errorf("front recorded %d remaps for %d moved projects — a project remapped twice", st.Remaps, moved)
	}
	// Project ids are random, so the moved count is binomial around
	// K/N' = 8; 50%+1 of K=32 is > 4σ out. The strict 40% acceptance
	// bound runs in loadmon -verify over a larger key population.
	if bound := len(dep.Tenants)/2 + 1; moved > bound {
		t.Errorf("%d/%d projects moved on 3→4 resize, want ≤ %d", moved, len(dep.Tenants), bound)
	}
	// Post-resize ownership must match the new ring exactly.
	for project, owner := range dep.Front.Owners() {
		if want := newRing.Owner(project); owner != want {
			t.Errorf("project %s stuck on %s after resize, ring says %s", project, owner, want)
		}
	}
}

// TestFleetChaosSoak drives the ~20% mixed-fault profile through the
// front with a fail-open fleet: the invariant sweep runs per instance and
// the verdict ledger still sums to the request count.
func TestFleetChaosSoak(t *testing.T) {
	requests := 2000
	if testing.Short() {
		requests = 800
	}
	opts := chaosOpts(t, monitor.FailOpen)
	opts.Instances, opts.TenantCount = 3, 12
	dep, rep := runFleet(t, opts, requests)
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("fleet chaos soak injected no faults; the profile is not wired in")
	}
	total := 0
	for _, n := range rep.Verdicts {
		total += n
	}
	if total != requests {
		t.Errorf("fleet verdicts sum to %d under chaos, want %d", total, requests)
	}
}

// TestFleetAsyncPostAggregation: async post across instances drains to a
// clean aggregate — nothing pending, lag histogram holds every enqueue.
func TestFleetAsyncPostAggregation(t *testing.T) {
	requests := 1600
	if testing.Short() {
		requests = 600
	}
	dep, rep := runFleet(t, Options{
		Monitor:     core.Options{Post: monitor.PostAsync},
		Instances:   2,
		TenantCount: 8,
	}, requests)
	st := dep.AsyncPostStats()
	if st.Enqueued == 0 {
		t.Fatal("fleet async run enqueued nothing")
	}
	if st.Pending != 0 {
		t.Fatalf("pending %d after drained fleet run", st.Pending)
	}
	if st.Lag.Count != st.Enqueued {
		t.Fatalf("aggregate lag histogram holds %d samples for %d enqueued", st.Lag.Count, st.Enqueued)
	}
	if rep.AsyncPost == nil {
		t.Fatal("report missing the aggregated async post section")
	}
}

// TestFleetAuditStamping: every audit record lands in its instance's own
// trail, stamped with that instance id, and the summed audit tallies
// agree with the summed verdict tallies on audited outcomes.
func TestFleetAuditStamping(t *testing.T) {
	dir := t.TempDir()
	requests := 1200
	if testing.Short() {
		requests = 600
	}
	dep, rep := runFleet(t, Options{AuditDir: dir, Instances: 3, TenantCount: 9}, requests)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for _, in := range dep.Instances {
		recs, err := obs.ReadAuditDir(in.Audit.Dir())
		if err != nil {
			t.Fatalf("scan %s: %v", in.Audit.Dir(), err)
		}
		for _, rec := range recs.Records {
			if rec.Instance != in.ID {
				t.Fatalf("record in %s trail stamped %q", in.ID, rec.Instance)
			}
			stamped++
		}
	}
	audited := 0
	for _, n := range dep.AuditCounts() {
		audited += n
	}
	if stamped != audited {
		t.Errorf("scanned %d stamped records, audit counters say %d", stamped, audited)
	}
	if rep.Audit == nil {
		t.Error("report missing audit tallies for an audited fleet run")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
