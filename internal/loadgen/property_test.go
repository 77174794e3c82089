package loadgen

import (
	"testing"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
)

// TestObserveZeroViolationsProperty is the satellite property: a loadgen
// run in Observe mode against an unmutated cloud yields zero contract
// violations regardless of the mix seed, and the per-SecReq coverage
// counters sum to the number of matched (SecReq, request) pairs the run
// produced.
//
// The workload is sequential (Clients: 1): with one request in flight at a
// time the snapshot-forward-snapshot workflow sees consistent state, so
// any violation would be a real contract/cloud disagreement — exactly what
// the mutation campaign relies on. (Concurrent runs can produce benign
// TOCTOU violations; the soak covers those with structural invariants.)
func TestObserveZeroViolationsProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234, 99991}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		requests := 400
		dep, err := Deploy(Options{Monitor: core.Options{Mode: monitor.Observe, MaxLog: requests + 64}})
		if err != nil {
			t.Fatal(err)
		}
		mon := dep.Instances[0].Sys.Monitor
		sc := Scenario{
			Name: "property",
			Mix: []OpSpec{
				{Op: OpGetVolume, Role: RoleAdmin, Weight: 8},
				{Op: OpGetVolume, Role: RoleMember, Weight: 8},
				{Op: OpGetVolume, Role: RoleUser, Weight: 6},
				{Op: OpGetVolume, Role: RoleAnonymous, Weight: 2},
				{Op: OpCreateVolume, Role: RoleAdmin, Weight: 5},
				{Op: OpCreateVolume, Role: RoleUser, Weight: 2},
				{Op: OpUpdateVolume, Role: RoleMember, Weight: 4},
				{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 4},
				{Op: OpDeleteVolume, Role: RoleUser, Weight: 2},
			},
			Clients:     1,
			Requests:    requests,
			Warmup:      20,
			Prepopulate: 8,
			Seed:        seed,
		}
		report, err := Run(sc, dep.Target)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if report.Errors != 0 {
			t.Errorf("seed %d: %d transport errors", seed, report.Errors)
		}
		for outcome, n := range mon.Outcomes() {
			if outcome.IsViolation() && n > 0 {
				t.Errorf("seed %d: %d %s verdicts on an unmutated cloud", seed, n, outcome)
			}
		}
		if len(mon.Violations()) != 0 {
			t.Errorf("seed %d: violation log not empty: %+v", seed, mon.Violations())
		}

		// Coverage bookkeeping: the counters the inspect API reports must
		// sum to the matched pairs actually recorded.
		matched := 0
		for _, v := range mon.Log() {
			matched += len(v.MatchedSecReqs)
		}
		covered := 0
		for _, n := range mon.Coverage() {
			covered += n
		}
		if covered != matched {
			t.Errorf("seed %d: coverage sum %d != matched SecReq pairs %d", seed, covered, matched)
		}
	}
}
