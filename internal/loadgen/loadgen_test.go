package loadgen

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
)

func TestLookup(t *testing.T) {
	for _, sc := range Scenarios() {
		got, err := Lookup(sc.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", sc.Name, err)
		}
		if got.Name != sc.Name {
			t.Errorf("Lookup(%q) returned %q", sc.Name, got.Name)
		}
		if len(got.Mix) == 0 {
			t.Errorf("scenario %q has an empty mix", sc.Name)
		}
		for _, cell := range got.Mix {
			if cell.Weight <= 0 {
				t.Errorf("scenario %q cell %s has weight %d", sc.Name, cell.Name(), cell.Weight)
			}
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup accepted an unknown scenario")
	}
}

func TestPickOpRespectsWeights(t *testing.T) {
	mix := []OpSpec{
		{Op: OpGetVolume, Role: RoleAdmin, Weight: 90},
		{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 10},
	}
	wk := worker{rng: rand.New(rand.NewSource(42)), weights: mix, total: 100}
	counts := map[string]int{}
	const draws = 10000
	for i := 0; i < draws; i++ {
		counts[wk.pickOp().Name()]++
	}
	gets := counts["get-volume/admin"]
	if gets < draws*80/100 || gets > draws*95/100 {
		t.Errorf("90%%-weight cell drawn %d/%d times", gets, draws)
	}
	if counts["delete-volume/admin"] == 0 {
		t.Error("10%-weight cell never drawn")
	}
}

func TestPercentile(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestVolumePool(t *testing.T) {
	p := &volumePool{}
	rng := rand.New(rand.NewSource(1))
	if _, ok := p.pick(rng); ok {
		t.Error("pick on empty pool succeeded")
	}
	p.add("a")
	p.add("b")
	if id, ok := p.pick(rng); !ok || (id != "a" && id != "b") {
		t.Errorf("pick = %q, %v", id, ok)
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		id, ok := p.take(rng)
		if !ok {
			t.Fatal("take failed with entries present")
		}
		seen[id] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("take did not drain both ids: %v", seen)
	}
	if _, ok := p.take(rng); ok {
		t.Error("take on drained pool succeeded")
	}
}

// TestRunSmoke drives a small closed-loop run end to end in process and
// checks the report's accounting.
func TestRunSmoke(t *testing.T) {
	dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name: "smoke",
		Mix: []OpSpec{
			{Op: OpGetVolume, Role: RoleMember, Weight: 3},
			{Op: OpCreateVolume, Role: RoleAdmin, Weight: 1},
		},
		Clients:     4,
		Requests:    200,
		Warmup:      20,
		Prepopulate: 4,
		Seed:        7,
	}
	report, err := Run(sc, dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != sc.Requests-sc.Warmup {
		t.Errorf("recorded %d requests, want %d", report.Requests, sc.Requests-sc.Warmup)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d, want 0", report.Errors)
	}
	if report.Throughput <= 0 {
		t.Errorf("throughput = %f", report.Throughput)
	}
	if report.Latency.P50 <= 0 || report.Latency.P99 < report.Latency.P50 {
		t.Errorf("implausible latency summary %+v", report.Latency)
	}
	if len(report.Verdicts) == 0 {
		t.Error("no verdict tallies despite Outcomes source")
	}
	sum := 0
	for _, st := range report.Ops {
		sum += st.Requests
	}
	if sum != report.Requests {
		t.Errorf("per-op requests sum %d != total %d", sum, report.Requests)
	}
}

// TestRunOpenLoop exercises the rate-paced dispatcher.
func TestRunOpenLoop(t *testing.T) {
	dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:        "open",
		Mix:         []OpSpec{{Op: OpGetVolume, Role: RoleMember, Weight: 1}},
		Clients:     4,
		Requests:    100,
		Rate:        2000,
		Prepopulate: 2,
		Seed:        1,
	}
	report, err := Run(sc, dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 100 {
		t.Errorf("recorded %d requests, want 100", report.Requests)
	}
	// 100 arrivals at 2000/s should take at least ~50ms of schedule.
	if report.DurationMS < 40 {
		t.Errorf("open loop finished in %.1f ms — pacing not applied", report.DurationMS)
	}
}

// TestReportJSONShape pins the report's JSON field names — the contract of
// `loadmon -json`.
func TestReportJSONShape(t *testing.T) {
	dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:        "shape",
		Mix:         []OpSpec{{Op: OpGetVolume, Role: RoleAdmin, Weight: 1}},
		Clients:     2,
		Requests:    50,
		Prepopulate: 2,
		Seed:        1,
	}
	report, err := Run(sc, dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "clients", "requests", "warmup", "errors",
		"duration_ms", "throughput_rps", "latency", "status", "ops"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q: %s", key, data)
		}
	}
	lat, _ := decoded["latency"].(map[string]any)
	for _, key := range []string{"p50_us", "p95_us", "p99_us", "mean_us", "max_us"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency JSON missing %q", key)
		}
	}
}

// TestRunValidation rejects malformed scenarios and targets.
func TestRunValidation(t *testing.T) {
	tgt := Target{Tenants: []Tenant{{ProjectID: "p"}}}
	if _, err := Run(Scenario{Name: "x"}, tgt); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := Run(Scenario{Name: "x",
		Mix: []OpSpec{{Op: OpGetVolume, Role: RoleAdmin, Weight: 0}}, Requests: 1}, tgt); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := Run(Scenario{Name: "x",
		Mix: []OpSpec{{Op: OpGetVolume, Role: RoleAdmin, Weight: 1}}}, tgt); err == nil {
		t.Error("missing budget accepted")
	}
	if _, err := Run(Scenario{Name: "x",
		Mix: []OpSpec{{Op: OpGetVolume, Role: RoleAdmin, Weight: 1}}, Requests: 1}, Target{}); err == nil {
		t.Error("target without tenants accepted")
	}
}

// TestDeployValidation rejects options Deploy would otherwise ignore.
func TestDeployValidation(t *testing.T) {
	for _, opts := range []Options{{Instances: -1}, {TenantCount: 4}} {
		if dep, err := Deploy(opts); err == nil {
			dep.Close()
			t.Errorf("Deploy(%+v) accepted", opts)
		}
	}
}

// TestFetchEconomyWaves runs one serial workload in process and against
// a lone monitor whose cloud is 1 ms away. Both monitors send
// waves. On these passing requests every path a wave reads is demanded,
// so both read the cloud exactly as often, and each counts every cloud
// GET as a fetched path.
func TestFetchEconomyWaves(t *testing.T) {
	sc := Scenario{
		Name: "economy-waves",
		Mix: []OpSpec{
			{Op: OpGetVolume, Role: RoleMember, Weight: 3},
			{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 1},
		},
		Clients:     1,
		Requests:    80,
		Prepopulate: 30,
		Seed:        11,
	}
	run := func(target Target) *Report {
		t.Helper()
		report, err := Run(sc, target)
		if err != nil {
			t.Fatal(err)
		}
		if report.Errors != 0 || report.Fetch == nil {
			t.Fatalf("errors %d, fetch economy %v", report.Errors, report.Fetch)
		}
		if report.Fetch.PathsFetched != report.Fetch.CloudGets {
			t.Errorf("%d paths fetched but %d cloud GETs", report.Fetch.PathsFetched, report.Fetch.CloudGets)
		}
		return report
	}
	dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}})
	if err != nil {
		t.Fatal(err)
	}
	local := run(dep.Target)
	far, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}, RTT: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	remote := run(far.Target)
	t.Logf("waves: %d in process, %d at 1 ms RTT", local.Fetch.Waves, remote.Fetch.Waves)
	if local.Fetch.Waves == 0 || remote.Fetch.Waves == 0 {
		t.Error("a monitor sent no waves")
	}
	if local.Fetch.CloudGets != remote.Fetch.CloudGets {
		t.Errorf("cloud GETs: %d in process, %d with waves", local.Fetch.CloudGets, remote.Fetch.CloudGets)
	}
}

// TestFetchEconomySerial runs a serial workload and checks the report's
// fetch-economy section against the whole-snapshot arithmetic: the monitor
// reads strictly less of the cloud than reading every contract path before
// each forward and again after each checked effect would, a serial loop
// coalesces nothing, and in process every path fetch is one cloud GET.
func TestFetchEconomySerial(t *testing.T) {
	dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Enforce}})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name: "economy",
		Mix: []OpSpec{
			{Op: OpGetVolume, Role: RoleMember, Weight: 3},
			{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 1},
		},
		Clients:     1,
		Requests:    120,
		Prepopulate: 40,
		Seed:        11,
	}
	report, err := Run(sc, dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	if report.Fetch == nil {
		t.Fatal("report has no fetch economy despite Fetch source")
	}
	fetched, whole := 0, 0
	sys := dep.Instances[0].Sys
	for _, v := range sys.Monitor.Log() {
		c, ok := sys.Contracts.For(v.Trigger)
		if !ok {
			t.Fatalf("verdict for %s has no contract", v.Trigger)
		}
		fetched += v.FetchedPaths
		whole += len(c.StatePaths())
		if v.Outcome == monitor.OK || v.Outcome == monitor.ViolationPostcondition {
			whole += len(c.StatePaths())
		}
	}
	if fetched >= whole {
		t.Errorf("the monitor fetched %d paths, the whole-snapshot workflow %d — demand must read strictly less",
			fetched, whole)
	}
	if report.Fetch.Coalesced != 0 {
		t.Errorf("serial run coalesced %d fetches", report.Fetch.Coalesced)
	}
	if report.Fetch.PathsFetched != report.Fetch.CloudGets {
		t.Errorf("%d paths fetched but %d cloud GETs", report.Fetch.PathsFetched, report.Fetch.CloudGets)
	}
}
