package monitor

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// recordTrail drives a monitor through a blocked request and a
// postcondition violation with the audit sink attached, then returns
// the recorded trail. These are the two interesting replay shapes: a
// never-forwarded enforcement and a forwarded-then-failed verdict.
func recordTrail(t *testing.T) (*contract.Set, []obs.AuditRecord) {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *fakeProvider) {
		t.Helper()
		m, err := New(Config{
			Contracts: set,
			Routes: []Route{{Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
				Pattern: "/projects/{project_id}/volumes/{volume_id}",
				Backend: "/volume/v3/{project_id}/volumes/{volume_id}"}},
			Provider: p,
			Forward:  &fakeForwarder{status: 204},
			Mode:     Enforce,
			Audit:    log,
		})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v1", nil)
		req.Header.Set("X-Auth-Token", "tok")
		m.ServeHTTP(httptest.NewRecorder(), req)
	}
	// member may not delete → blocked (audited with its pre snapshot).
	run(&fakeProvider{pre: env(1, 10, "available", "member")})
	// admin deletes but the volume count does not drop → postcondition
	// violation (audited with pre and post snapshots).
	run(&fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(2, 10, "available", "admin"),
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("recorded %d audit records, want 2", len(res.Records))
	}
	return set, res.Records
}

func TestReplayReproducesVerdicts(t *testing.T) {
	set, recs := recordTrail(t)
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ReplayAll(recs)
	if !sum.OK() || sum.Matched != 2 || sum.Skipped != 0 {
		t.Fatalf("replay summary %+v (failures %+v)", sum, sum.Failures)
	}
	if recs[0].Outcome != Blocked.String() || recs[1].Outcome != ViolationPostcondition.String() {
		t.Fatalf("trail shape changed: %s, %s", recs[0].Outcome, recs[1].Outcome)
	}
}

func TestReplayDetectsTamperedSnapshot(t *testing.T) {
	set, recs := recordTrail(t)
	// Forge the blocked record's pre state: with admin rights the
	// contract would have allowed the delete, so the recorded "blocked"
	// verdict no longer follows from the (tampered) evidence.
	recs[0].Pre["user.id.groups"] = "Set{'admin'}"
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ReplayAll(recs)
	if sum.OK() || sum.Diverged != 1 {
		t.Fatalf("tampered snapshot not caught: %+v", sum)
	}
	if sum.Failures[0].Seq != recs[0].Seq || sum.Failures[0].Replayed == recs[0].Outcome {
		t.Fatalf("failure %+v", sum.Failures[0])
	}
}

func TestReplayDetectsTamperedOutcome(t *testing.T) {
	set, recs := recordTrail(t)
	// Downgrade the violation to an innocuous outcome: replay must
	// re-derive the violation from the snapshots and flag the mismatch.
	recs[1].Outcome = Rejected.String()
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ReplayAll(recs)
	if sum.OK() {
		t.Fatalf("tampered outcome not caught: %+v", sum)
	}
}

func TestReplayContractDigestBinding(t *testing.T) {
	set, recs := recordTrail(t)
	if recs[0].ContractDigest == "" {
		t.Fatal("audit record carries no contract digest")
	}
	recs[0].ContractDigest = "sha256:0000000000000000"
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ReplayAll(recs)
	if sum.ContractMismatch != 1 || sum.OK() {
		t.Fatalf("digest mismatch not flagged: %+v", sum)
	}
}

func TestReplaySkipsIncompleteVerdicts(t *testing.T) {
	set, recs := recordTrail(t)
	recs[0].Outcome = Error.String()
	recs[1].Outcome = Unverified.String()
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.ReplayAll(recs)
	if !sum.OK() || sum.Skipped != 2 || sum.Replayed != 0 {
		t.Fatalf("error/unverified must be skipped, not judged: %+v", sum)
	}
}

func TestContractDigestStability(t *testing.T) {
	a, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	b, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Error("same model generates different set digests")
	}
	nova, err := contract.Generate(paper.NovaModel())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == nova.Digest() {
		t.Error("different models share a set digest")
	}
	for _, c := range a.Contracts {
		if c.Digest() == "" {
			t.Fatalf("contract %s has empty digest", c.Trigger)
		}
	}
}

// TestReplayFuzzCorpus replays every verdict of the differential fuzz
// corpus (TestDifferentialFuzzStates' 300 draws of request, pre- and
// post-state, status and mode, run as the monitor ships, with post reuse)
// from its own audit record. Every non-error verdict must reproduce its
// outcome and failing clause from the snapshots it recorded: the snapshot
// of record holds everything the verdict read, on arbitrary states too.
// Error verdicts carry no complete state and are skipped.
func TestReplayFuzzCorpus(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reqs := diffRequests()
	statuses := []int{200, 204, 403, 500}
	replayed, skipped := 0, 0
	for i := 0; i < 300; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre, post := randomEnv(rng), randomEnv(rng)
		status := statuses[rng.Intn(len(statuses))]
		mode := Enforce
		if rng.Intn(2) == 0 {
			mode = Observe
		}
		v, _ := runEngine(t, set, arm{}, mode, rq.method, rq.path, pre, post, status)
		res := r.Replay(auditRecord(&v))
		switch {
		case res.Skipped != "":
			if v.Outcome != Error {
				t.Errorf("fuzz-%d: %s verdict skipped: %s", i, v.Outcome, res.Skipped)
			}
			skipped++
		case res.Diverged || res.ContractMismatch:
			t.Errorf("fuzz-%d: %s (pre=%v post=%v)", i, res.Reason, v.PreSnapshot, v.PostSnapshot)
		default:
			replayed++
		}
	}
	// The corpus is seeded, so the split is fixed: 269 verdicts replay
	// and 31 are errors.
	if replayed != 269 || skipped != 31 {
		t.Errorf("replayed %d and skipped %d of 300 verdicts, want 269 and 31", replayed, skipped)
	}
}
