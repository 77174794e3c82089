// Experiment harness: one test per measurable paper artifact (see
// EXPERIMENTS.md and DESIGN.md §4). Run with -v to see the regenerated
// tables next to the paper's claims:
//
//	go test -v -run TestExperiment .
package cloudmon_test

import (
	"crypto/ed25519"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/evidence"
	"cloudmon/internal/loadgen"
	"cloudmon/internal/mbt"
	"cloudmon/internal/monitor"
	"cloudmon/internal/mutation"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/rbac"
	"cloudmon/internal/uml"

	"cloudmon/internal/openstack/cinder"
)

// TestExperimentTableI (E1): the security requirements of Table I are
// recoverable from the generated contracts — each (method, role) cell of
// the table agrees with the contract's authorization guard, and the
// shipped policy.json enforces the same matrix.
func TestExperimentTableI(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	policy := cinder.DefaultPolicy()
	actions := map[uml.HTTPMethod]string{
		uml.GET: cinder.ActionGet, uml.PUT: cinder.ActionUpdate,
		uml.POST: cinder.ActionCreate, uml.DELETE: cinder.ActionDelete,
	}
	allRoles := []string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser}

	for _, row := range paper.TableI() {
		c, ok := set.For(uml.Trigger{Method: row.Request, Resource: row.Resource})
		if !ok {
			t.Fatalf("no contract for %s(%s)", row.Request, row.Resource)
		}
		if len(c.SecReqs) != 1 || c.SecReqs[0] != row.SecReq {
			t.Errorf("%s: contract SecReqs = %v, want [%s]", row.Request, c.SecReqs, row.SecReq)
		}
		for _, role := range allRoles {
			_, allowed := row.Roles[role]

			// (a) The contract's pre-condition must admit exactly the
			// table's roles (state conditions held constant at a
			// satisfiable configuration).
			env := ocl.MapEnv{
				"project.id":        ocl.StringVal("p"),
				"project.volumes":   ocl.CollectionVal(ocl.StringVal("v")),
				"quota_sets.volume": ocl.IntVal(10),
				"volume.status":     ocl.StringVal("available"),
				"user.id.groups":    ocl.StringsVal(role),
			}
			if row.Request == uml.POST {
				env["project.volumes"] = ocl.CollectionVal()
			}
			got, err := ocl.EvalBool(c.Pre, ocl.Context{Cur: env})
			if err != nil {
				t.Fatal(err)
			}
			if got != allowed {
				t.Errorf("SecReq %s (%s) role %s: contract says %v, Table I says %v",
					row.SecReq, row.Request, role, got, allowed)
			}

			// (b) The cloud's policy.json must agree.
			polOK, err := policy.Check(actions[row.Request],
				rbac.Credentials{Roles: []string{role}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if polOK != allowed {
				t.Errorf("SecReq %s (%s) role %s: policy says %v, Table I says %v",
					row.SecReq, row.Request, role, polOK, allowed)
			}
			t.Logf("Table I | %-6s %-7s role=%-6s allowed=%v (contract=%v policy=%v)",
				row.SecReq, row.Request, role, allowed, got, polOK)
		}
	}
}

// TestExperimentListing1 (E2): the generated DELETE(volume) contract has
// the exact structure of the paper's Listing 1 — a three-way disjunctive
// pre-condition (one disjunct per triggering transition: two from
// not-full-quota, one from full-quota) and per-case implications over
// pre-state values in the post-condition.
func TestExperimentListing1(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	if !ok {
		t.Fatal("no DELETE(volume) contract")
	}
	if len(c.Cases) != 3 {
		t.Fatalf("cases = %d, want 3 (paper: three transitions)", len(c.Cases))
	}
	listing := contract.RenderListing(c, contract.StylePaper)
	t.Logf("regenerated Listing 1:\n%s", listing)

	// Structural checks against the paper's listing.
	for _, want := range []string{
		// all three antecedents mention the admin-group condition:
		"user.id.groups = 'admin'",
		// the in-use guard:
		"volume.status <> 'in-use'",
		// the quota comparisons, under- and at-quota:
		"project.volumes < quota_sets.volume",
		"project.volumes = quota_sets.volume",
		// the old-value effect:
		"pre(project.volumes->size())",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	if got := strings.Count(listing, "user.id.groups = 'admin'"); got < 6 {
		t.Errorf("admin condition appears %d times, want >= 6 (3 pre + 3 post antecedents)", got)
	}
	// Every rendered case re-parses (the contracts are real OCL, not
	// strings).
	for i, cs := range c.Cases {
		if _, err := ocl.Parse(cs.Pre.String()); err != nil {
			t.Errorf("case %d pre does not re-parse: %v", i, err)
		}
		if _, err := ocl.Parse(cs.Post.String()); err != nil {
			t.Errorf("case %d post does not re-parse: %v", i, err)
		}
	}
}

// TestExperimentWorkflow (E3): Figure 2's workflow holds on a live
// deployment — requests whose pre-condition fails are answered with an
// invalid response and never reach the cloud; requests whose pre- and
// post-conditions hold return the cloud's response.
func TestExperimentWorkflow(t *testing.T) {
	lab, err := mutation.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	requests := lab.RunMatrix()
	outcomes := lab.Sys.Monitor.Outcomes()
	t.Logf("workflow over %d requests: ok=%d rejected=%d violations=%d errors=%d",
		requests, outcomes[monitor.OK], outcomes[monitor.Rejected],
		len(lab.Sys.Monitor.Violations()), outcomes[monitor.Error])
	if outcomes[monitor.OK] == 0 {
		t.Error("no requests passed both pre- and post-conditions")
	}
	if outcomes[monitor.Rejected] == 0 {
		t.Error("no contract-forbidden requests were exercised")
	}
	if outcomes[monitor.Error] != 0 {
		t.Error("monitor errors during the workflow")
	}
	if n := len(lab.Sys.Monitor.Violations()); n != 0 {
		t.Errorf("clean cloud produced %d violations", n)
	}
}

// TestExperimentMutants (E4): Section VI.D — "we were able to kill all
// three mutants systematically introduced in the cloud implementation".
// The paper's three mutants and the extended catalogue must all be killed,
// with zero false positives on the clean deployment.
func TestExperimentMutants(t *testing.T) {
	report, err := mutation.RunCampaign(mutation.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	report.Format(&sb)
	t.Logf("kill matrix:\n%s", sb.String())

	if report.BaselineViolations != 0 {
		t.Errorf("baseline violations = %d, want 0", report.BaselineViolations)
	}
	paperKilled := 0
	for _, run := range report.Runs {
		if run.Paper && run.Killed {
			paperKilled++
		}
		if !run.Killed {
			t.Errorf("mutant %s (%s) survived", run.MutantID, run.MutantName)
		}
	}
	if paperKilled != 3 {
		t.Errorf("paper mutants killed = %d/3", paperKilled)
	}
}

// TestExperimentSnapshotFootprint (E7 claim check): the paper argues the
// monitor's pre-state storage is cheap because "we do not need to save the
// copy of the whole resource(s) but only the values that constitute the
// guards and invariants ... usually a few bits of storage per method".
// Measure the snapshot of the heaviest contract.
func TestExperimentSnapshotFootprint(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range set.Contracts {
		paths := c.StatePaths()
		// A realistic snapshot for the paths.
		env := ocl.MapEnv{
			"project.id":        ocl.StringVal("8f9c2b4de1a34567"),
			"project.volumes":   ocl.CollectionVal(ocl.StringVal("a"), ocl.StringVal("b"), ocl.StringVal("c")),
			"quota_sets.volume": ocl.IntVal(10),
			"volume.status":     ocl.StringVal("available"),
			"user.id.groups":    ocl.StringsVal("admin"),
		}
		bytes := 0
		for _, p := range paths {
			v, _ := env.Resolve(strings.Split(p, "."))
			bytes += len(p) + len(v.String())
		}
		t.Logf("%-16s snapshot: %d paths, ~%d bytes", c.Trigger, len(paths), bytes)
		if len(paths) > 8 {
			t.Errorf("%s snapshots %d paths; the contract should only need its guard/invariant values", c.Trigger, len(paths))
		}
		if bytes > 512 {
			t.Errorf("%s snapshot ~%d bytes; expected tens of bytes per method", c.Trigger, bytes)
		}
	}
}

// TestExperimentAblation (E10): the value of post-condition checking — a
// pre-only monitor (half the state reads) still kills every authorization
// mutant, but the lost-effect mutants survive; only the full workflow of
// Figure 2 reaches 100% kills.
func TestExperimentAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation campaign in -short mode")
	}
	full, err := mutation.RunCampaign(mutation.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	preOnly, err := mutation.RunCampaignWithOptions(mutation.Catalogue(), mutation.LabOptions{
		Level: monitor.CheckPreOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ablation | full monitor: %d/%d killed; pre-only: %d/%d killed",
		full.Killed(), len(full.Runs), preOnly.Killed(), len(preOnly.Runs))
	if full.Killed() != len(full.Runs) {
		t.Errorf("full monitor killed %d/%d", full.Killed(), len(full.Runs))
	}
	if preOnly.Killed() >= full.Killed() {
		t.Errorf("pre-only monitor should kill strictly fewer mutants (%d vs %d)",
			preOnly.Killed(), full.Killed())
	}
	// The survivors are exactly the lost-effect mutants.
	for _, run := range preOnly.Runs {
		wantSurvive := run.MutantID == "F3" || run.MutantID == "F4"
		if run.Killed == wantSurvive {
			t.Errorf("pre-only: mutant %s killed=%v, want %v", run.MutantID, run.Killed, !wantSurvive)
		}
	}
}

// TestExperimentGenerality (E11, extension): the pipeline is not
// Cinder-specific — contracts generated from the Nova server model monitor
// the compute API and kill its authorization mutants with zero false
// positives.
func TestExperimentGenerality(t *testing.T) {
	report, err := mutation.RunNovaCampaign(mutation.NovaCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nova campaign: killed %d/%d, baseline %d requests %d violations",
		report.Killed(), len(report.Runs),
		report.BaselineRequests, report.BaselineViolations)
	if report.BaselineViolations != 0 {
		t.Errorf("nova baseline violations = %d", report.BaselineViolations)
	}
	if report.Killed() != len(report.Runs) {
		t.Errorf("nova mutants killed %d/%d", report.Killed(), len(report.Runs))
	}
}

// TestExperimentMBT (E12, extension): the test matrix need not be written
// by hand — a suite generated from the behavioral model (positive,
// negative and anonymous cases per transition) passes on a clean cloud and
// exposes the paper's mutants.
func TestExperimentMBT(t *testing.T) {
	suite, err := mbt.Generate(paper.CinderBehavioralModel(),
		[]string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %d cases from the behavioral model", len(suite.Cases))
	ex := mutation.NewModelExecutor(nil)
	res, err := mbt.Run(suite, ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() != len(res.Results) {
		for _, f := range res.Failures() {
			t.Errorf("clean-cloud case %s failed: %v", f.Case.ID, f.SetupErr)
		}
	}
	if ex.Violations() != 0 {
		t.Errorf("clean cloud produced %d violations", ex.Violations())
	}
}

// TestExperimentCoverage (E9): requirement-coverage traceability (Section
// IV.C) — after the standard request matrix, every Table-I security
// requirement has been exercised and is reported by the monitor.
func TestExperimentCoverage(t *testing.T) {
	lab, err := mutation.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	lab.RunMatrix()
	cov := lab.Sys.Monitor.Coverage()
	for _, row := range paper.TableI() {
		if cov[row.SecReq] == 0 {
			t.Errorf("SecReq %s (%s) not covered", row.SecReq, row.Request)
		}
		t.Logf("coverage | SecReq %-4s (%s volume): %d hits", row.SecReq, row.Request, cov[row.SecReq])
	}
}

// TestExperimentE19EvidencePack (E19): signed evidence packs replay
// independently. A real load run writes its audit trail; the trail is
// cut into a PackSpec v1 pack (canonical JSON, SHA-256 manifest,
// Ed25519 signature); a verifier holding only the pack and the
// contract model re-evaluates every packed verdict against the packed
// snapshots — divergence must be 0 of N. Flipping a single byte in a
// packed segment must break verification with a pointed
// manifest-mismatch error.
func TestExperimentE19EvidencePack(t *testing.T) {
	sc, err := loadgen.Lookup("cinder-mixed")
	if err != nil {
		t.Fatal(err)
	}
	sc.Requests, sc.Warmup = 400, 0
	dep, err := loadgen.Deploy(loadgen.Options{AuditDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := loadgen.Run(sc, dep.Target); err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	if err := inst.Audit.Sync(); err != nil {
		t.Fatal(err)
	}

	_, priv, err := evidence.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(t.TempDir(), "run.pack")
	res, err := evidence.BuildPack(inst.Audit.Dir(), packPath, evidence.PackOptions{
		Key:       priv,
		Scenario:  sc.Name,
		SetDigest: inst.Sys.Contracts.Digest(),
		Tool:      "experiments",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("E19 needs a trail with verdicts; the scenario produced none")
	}

	p, err := evidence.OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Verify(priv.Public().(ed25519.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pack verification failed: %+v", rep)
	}
	recs, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	replayer, err := monitor.NewReplayer(inst.Sys.Contracts)
	if err != nil {
		t.Fatal(err)
	}
	sum := replayer.ReplayAll(recs.Records)
	if !sum.OK() || sum.Replayed == 0 {
		t.Fatalf("replay: %+v (failures %+v)", sum, sum.Failures)
	}
	if sum.Diverged != 0 {
		t.Fatalf("E19 requires 0 divergences, got %d", sum.Diverged)
	}
	t.Logf("E19 | packed %d records (pack %.24s…), replayed %d, matched %d, diverged 0",
		res.Records, res.PackID, sum.Replayed, sum.Matched)

	// One flipped byte anywhere must break the pack.
	seg := filepath.Join(packPath, "segments", "audit-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := evidence.OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rep2, err := p2.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PackOK() {
		t.Fatal("flipped byte not detected")
	}
	pointed := false
	for _, prob := range rep2.Problems {
		if strings.Contains(prob, "manifest mismatch") && strings.Contains(prob, "audit-000001.jsonl") {
			pointed = true
		}
	}
	if !pointed {
		t.Fatalf("no pointed manifest-mismatch problem: %v", rep2.Problems)
	}
	t.Logf("E19 | tamper: 1 flipped byte -> %d verification problems", len(rep2.Problems))
}

// TestExperimentE20FleetScaling (E20): horizontal sharding pays off once
// each monitor instance is bound by its per-process backend connection
// budget and the cloud round-trip time. The same cinder-mixed workload
// runs against fleets of N ∈ {1, 2, 4} instances behind the
// consistent-hash front, every instance throttled to 2 backend
// connections at 1 ms simulated RTT. Aggregate throughput must scale —
// the gate is ≥ 2.5× at N=4 over N=1 — and the per-N results are logged
// as one JSON document (`make fleetbench` prints them). The test writes
// no file: a single run is one sample, not a tracked result.
func TestExperimentE20FleetScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-bound fleet experiment (a few seconds of simulated RTT)")
	}
	sc, err := loadgen.Lookup("cinder-mixed")
	if err != nil {
		t.Fatal(err)
	}
	sc.Requests, sc.Warmup, sc.Clients, sc.Prepopulate = 2000, 160, 128, 4

	const (
		tenants      = 128
		connsPerInst = 2
		rtt          = time.Millisecond
	)
	type result struct {
		Instances     int     `json:"instances"`
		Requests      int     `json:"requests"`
		ThroughputRPS float64 `json:"throughput_rps"`
		Speedup       float64 `json:"speedup_vs_n1"`
	}
	var results []result
	for _, n := range []int{1, 2, 4} {
		fdep, err := loadgen.Deploy(loadgen.Options{
			Instances: n, TenantCount: tenants, RTT: rtt, Conns: connsPerInst,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, runErr := loadgen.Run(sc, fdep.Target)
		fdep.Close()
		if runErr != nil {
			t.Fatal(runErr)
		}
		if rep.Errors != 0 {
			t.Fatalf("E20 N=%d: %d request errors", n, rep.Errors)
		}
		results = append(results, result{Instances: n, Requests: rep.Requests, ThroughputRPS: rep.Throughput})
		t.Logf("E20 | N=%d  conns/instance=%d  rtt=%s: %7.0f req/s",
			n, connsPerInst, rtt, rep.Throughput)
	}
	base := results[0].ThroughputRPS
	for i := range results {
		results[i].Speedup = results[i].ThroughputRPS / base
	}
	speedup := results[len(results)-1].Speedup
	t.Logf("E20 | aggregate speedup N=4 over N=1: %.2fx (gate >= 2.5x)", speedup)
	if speedup < 2.5 {
		t.Errorf("E20: N=4 speedup %.2fx < 2.5x over N=1", speedup)
	}

	out := struct {
		Experiment       string   `json:"experiment"`
		Scenario         string   `json:"scenario"`
		RTTMillis        float64  `json:"rtt_ms"`
		ConnsPerInstance int      `json:"conns_per_instance"`
		Clients          int      `json:"clients"`
		Tenants          int      `json:"tenants"`
		Results          []result `json:"results"`
	}{
		Experiment: "E20", Scenario: sc.Name,
		RTTMillis: float64(rtt) / float64(time.Millisecond), ConnsPerInstance: connsPerInst,
		Clients: sc.Clients, Tenants: tenants, Results: results,
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E20 | %s", data)
}
