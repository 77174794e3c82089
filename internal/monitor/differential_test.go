package monitor

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// The differential suites hold the monitor's one evaluation engine — the
// demand-driven check over compiled clause programs — to the oracle, the
// paper's whole-snapshot workflow (oracle_test.go): same outcome, pre/post
// truth, failing clause, detail and SecReq attribution on every request,
// and never more cloud reads. Each sweep runs the engine synchronously and
// with async post, as the monitor ships (effect-frame reuse) where the
// post-state respects the effect frame, and under the full re-check
// (fullRecheck, wave_test.go) on unconstrained states. A sync arm and its
// async twin must also agree on every economy counter (fetches, reuses).

// diffRoutes is the paper model's volume route table the monitor tests
// share.
func diffRoutes() []Route {
	return []Route{
		{Trigger: uml.Trigger{Method: uml.GET, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
		{Trigger: uml.Trigger{Method: uml.PUT, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
		{Trigger: uml.Trigger{Method: uml.POST, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes",
			Backend: "/volume/v3/{project_id}/volumes"},
		{Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
	}
}

// arm is one engine configuration the differential suites run.
type arm struct {
	name        string
	fullRecheck bool
	async       bool
}

// arms returns the sync and async arms, with effect-frame reuse or
// under the full re-check.
func arms(reuse bool) []arm {
	var out []arm
	for _, async := range []bool{false, true} {
		name := "reuse"
		if !reuse {
			name = "full-recheck"
		}
		if async {
			name += "/async"
		}
		out = append(out, arm{name: name, fullRecheck: !reuse, async: async})
	}
	return out
}

// runEngine drives one request through a freshly built monitor and
// returns its verdict and response code; an async arm drains the
// deferred post phase first.
func runEngine(t *testing.T, set *contract.Set, a arm, mode Mode,
	method, path string, pre, post ocl.MapEnv, status int) (Verdict, int) {
	t.Helper()
	cfg := Config{
		Contracts: set,
		Routes:    diffRoutes(),
		Provider:  &fakeProvider{pre: pre, post: post},
		Forward:   &fakeForwarder{status: status},
		Mode:      mode,
	}
	if a.async {
		cfg.Post = PostAsync
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if a.fullRecheck {
		fullRecheck(m)
	}
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	m.DrainPost()
	return lastVerdict(t, m), rec.Code
}

// diffArms runs every arm against the oracle on one request and state,
// and each async arm against the economy of the sync arm before it.
func diffArms(t *testing.T, set *contract.Set, name string, configs []arm, mode Mode,
	rq diffRequest, pre, post ocl.MapEnv, status int) {
	t.Helper()
	ref, refCode := oracle(t, set, mode, rq.method, pre, post, status)
	var sync Verdict
	for _, a := range configs {
		got, code := runEngine(t, set, a, mode, rq.method, rq.path, pre, post, status)
		want := refCode
		if got.Late {
			// The async arm's one designed observable difference: a
			// verdict decided in the deferred post phase (violation or
			// evaluation error) lands after the client already has the
			// backend's answer, so the wire code is the backend's, not the
			// 409/502 the synchronous monitor substitutes.
			want = got.BackendStatus
		}
		diffCompare(t, name+"/"+a.name, ref, got, want, code)
		if a.async {
			diffEconomy(t, name+"/"+a.name, sync, got)
		}
		sync = got
	}
}

// diffCompare asserts the equivalence contract between the oracle's
// verdict and the engine's. Detail is compared except on Error outcomes:
// plan order may surface a different (equally real) evaluation error than
// the monolithic formula does.
func diffCompare(t *testing.T, name string, ref, got Verdict, refCode, gotCode int) {
	t.Helper()
	fail := func(field string, e, l interface{}) {
		t.Errorf("%s: %s diverged: ref %v, got %v", name, field, e, l)
	}
	if ref.Outcome != got.Outcome {
		fail("outcome", fmt.Sprintf("%s (%s)", ref.Outcome, ref.Detail),
			fmt.Sprintf("%s (%s)", got.Outcome, got.Detail))
		return
	}
	if refCode != gotCode {
		fail("status", refCode, gotCode)
	}
	if ref.PreOK != got.PreOK {
		fail("PreOK", ref.PreOK, got.PreOK)
	}
	if ref.PostOK != got.PostOK {
		fail("PostOK", ref.PostOK, got.PostOK)
	}
	if ref.Forwarded != got.Forwarded {
		fail("Forwarded", ref.Forwarded, got.Forwarded)
	}
	if !reflect.DeepEqual(ref.MatchedSecReqs, got.MatchedSecReqs) {
		fail("MatchedSecReqs", ref.MatchedSecReqs, got.MatchedSecReqs)
	}
	if !reflect.DeepEqual(ref.MatchedTransitions, got.MatchedTransitions) {
		fail("MatchedTransitions", ref.MatchedTransitions, got.MatchedTransitions)
	}
	if ref.FailingClause != got.FailingClause {
		fail("FailingClause", ref.FailingClause, got.FailingClause)
	}
	if ref.Outcome != Error && ref.Detail != got.Detail {
		fail("Detail", ref.Detail, got.Detail)
	}
	if got.FetchedPaths > ref.FetchedPaths {
		fail("FetchedPaths (the engine must not fetch more)", ref.FetchedPaths, got.FetchedPaths)
	}
}

// diffEconomy asserts exact economy-counter agreement between a sync arm
// and its async twin: deferring the post phase moves it off the response
// path and changes nothing it reads or decides.
func diffEconomy(t *testing.T, name string, sync, async Verdict) {
	t.Helper()
	if sync.FetchedPaths != async.FetchedPaths {
		t.Errorf("%s: FetchedPaths diverged: sync %d, async %d", name, sync.FetchedPaths, async.FetchedPaths)
	}
	if sync.ReusedPaths != async.ReusedPaths {
		t.Errorf("%s: ReusedPaths diverged: sync %d, async %d", name, sync.ReusedPaths, async.ReusedPaths)
	}
}

type diffRequest struct {
	method, path string
}

func diffRequests() []diffRequest {
	return []diffRequest{
		{http.MethodGet, "/projects/p1/volumes/v1"},
		{http.MethodPut, "/projects/p1/volumes/v1"},
		{http.MethodPost, "/projects/p1/volumes"},
		{http.MethodDelete, "/projects/p1/volumes/v1"},
	}
}

// TestDifferentialExampleStates sweeps hand-picked states covering every
// outcome class: pre pass/fail, post pass/fail, backend accept/reject, in
// both modes, in every arm. The full re-check is equivalent on any state;
// reuse is too here, because across the call these states change only the
// effect frame's project.volumes, or (absent-status) a path no post clause
// reads.
func TestDifferentialExampleStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		name      string
		pre, post ocl.MapEnv
		status    int
	}
	states := []state{
		{"ok-delete", env(2, 10, "available", "admin"), env(1, 10, "available", "admin"), 204},
		{"post-violation", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 204},
		{"pre-fail-role", env(2, 10, "available", "intruder"), env(1, 10, "available", "intruder"), 204},
		{"pre-fail-in-use", env(2, 10, "in-use", "admin"), env(1, 10, "in-use", "admin"), 204},
		{"backend-rejects", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 403},
		{"backend-errors", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 500},
		{"quota-edge", env(10, 10, "available", "admin"), env(9, 10, "available", "admin"), 204},
		{"empty-project", env(0, 10, "available", "admin"), env(0, 10, "available", "admin"), 204},
	}
	// Undefined inputs: missing paths resolve to Undefined in both engines.
	partial := env(2, 10, "available", "admin")
	delete(partial, "volume.status")
	states = append(states, state{"absent-status", partial, env(1, 10, "available", "admin"), 204})
	// Ill-typed state: quota as a string exercises evaluation errors.
	illTyped := env(2, 10, "available", "admin")
	illTyped["quota_sets.volume"] = ocl.StringVal("ten")
	states = append(states, state{"ill-typed-quota", illTyped, illTyped, 204})

	for _, mode := range []Mode{Enforce, Observe} {
		for _, rq := range diffRequests() {
			for _, st := range states {
				name := fmt.Sprintf("%s/%s/%s", mode, rq.method, st.name)
				diffArms(t, set, name, append(arms(false), arms(true)...), mode, rq, st.pre, st.post, st.status)
			}
		}
	}
}

// randomEnv draws a state; roughly half the draws are well-typed, the rest
// mix in absent paths and wrong kinds so the error paths diverge or agree
// loudly.
func randomEnv(rng *rand.Rand) ocl.MapEnv {
	roles := []string{"admin", "member", "user", "intruder", ""}
	statuses := []string{"available", "in-use", "error", ""}
	e := env(rng.Intn(4), rng.Intn(4), statuses[rng.Intn(len(statuses))], roles[rng.Intn(len(roles))])
	if rng.Intn(4) == 0 {
		keys := []string{"project.id", "project.volumes", "quota_sets.volume", "volume.status", "user.id.groups"}
		delete(e, keys[rng.Intn(len(keys))])
	}
	if rng.Intn(6) == 0 {
		e["quota_sets.volume"] = ocl.StringVal("zz")
	}
	return e
}

// TestDifferentialFuzzStates drives the engine over seeded random pre and
// post states and demands verdict equivalence with the oracle under the
// full re-check: post states are unconstrained, so the frame assumption
// reuse rests on does not hold.
func TestDifferentialFuzzStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reqs := diffRequests()
	statuses := []int{200, 204, 403, 500}
	for i := 0; i < 300; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre, post := randomEnv(rng), randomEnv(rng)
		status := statuses[rng.Intn(len(statuses))]
		mode := Enforce
		if rng.Intn(2) == 0 {
			mode = Observe
		}
		name := fmt.Sprintf("fuzz-%d/%s/%s", i, mode, rq.method)
		diffArms(t, set, name, arms(false), mode, rq, pre, post, status)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v status=%d", i, pre, post, status)
		}
	}
}

// TestDifferentialPostReuseOnFrameRespectingStates checks the monitor as
// it ships (effect-frame reuse) against the oracle, on post states
// that honor the frame: only paths inside the active transitions' effect
// frame change across the call. This is the soundness condition the reuse
// optimization rests on — the cloud moved only what the model says the
// transition touches.
func TestDifferentialPostReuseOnFrameRespectingStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	reqs := diffRequests()
	for i := 0; i < 200; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre := randomEnv(rng)
		// The paper model's every effect frame is {project.volumes}: a
		// frame-respecting post state mutates only the volume set.
		post := make(ocl.MapEnv, len(pre))
		for k, v := range pre {
			post[k] = v
		}
		elems := make([]ocl.Value, rng.Intn(4))
		for j := range elems {
			elems[j] = ocl.StringVal("v")
		}
		post["project.volumes"] = ocl.CollectionVal(elems...)
		name := fmt.Sprintf("reuse-%d/%s", i, rq.method)
		diffArms(t, set, name, arms(true), Enforce, rq, pre, post, 204)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v", i, pre, post)
		}
	}
}

// TestLazyFetchEconomyOnPaperModel pins the headline numbers demand-driven
// evaluation claims for the paper's Cinder model: a clean GET needs 5
// cloud reads against the whole-snapshot oracle's 8, and a clean DELETE 6
// against 10.
func TestLazyFetchEconomyOnPaperModel(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method, path          string
		pre, post             ocl.MapEnv
		status                int
		wantFetch, wantOracle int
		wantReused            int
	}{
		// GET: 4 pre paths + post re-fetch of project.volumes; the other
		// 2 consequent reads reuse the pre-state (project.id, quota).
		{http.MethodGet, "/projects/p1/volumes/v1",
			env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 200, 5, 8, 2},
		// DELETE: 5 pre paths + 1 framed post path.
		{http.MethodDelete, "/projects/p1/volumes/v1",
			env(2, 10, "available", "admin"), env(1, 10, "available", "admin"), 204, 6, 10, 2},
	}
	for _, tc := range cases {
		ref, _ := oracle(t, set, Enforce, tc.method, tc.pre, tc.post, tc.status)
		if ref.Outcome != OK {
			t.Fatalf("%s: oracle outcome %s, want ok", tc.method, ref.Outcome)
		}
		if ref.FetchedPaths != tc.wantOracle {
			t.Errorf("%s: oracle fetched %d paths, want %d", tc.method, ref.FetchedPaths, tc.wantOracle)
		}
		v, _ := runEngine(t, set, arm{}, Enforce, tc.method, tc.path, tc.pre, tc.post, tc.status)
		if v.Outcome != OK {
			t.Fatalf("%s: outcome %s, want ok", tc.method, v.Outcome)
		}
		if v.FetchedPaths != tc.wantFetch {
			t.Errorf("%s: fetched %d paths, want %d", tc.method, v.FetchedPaths, tc.wantFetch)
		}
		if v.ReusedPaths != tc.wantReused {
			t.Errorf("%s: reused %d paths, want %d", tc.method, v.ReusedPaths, tc.wantReused)
		}
	}
}

// TestDifferentialFailPolicies pins how each snapshot-failure policy
// degrades: a cloud outage yields a fixed outcome, response code,
// forwarding decision and read count per policy. Two fault shapes are
// driven per policy: pre-phase failure and post-phase failure.
func TestDifferentialFailPolicies(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	build := func(policy FailPolicy, prov StateProvider) *Monitor {
		t.Helper()
		m, err := New(Config{
			Contracts:  set,
			Routes:     diffRoutes(),
			Provider:   prov,
			Forward:    &fakeForwarder{status: 204},
			Mode:       Enforce,
			FailPolicy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sendReq := func(m *Monitor, method string) (Verdict, int) {
		t.Helper()
		req := httptest.NewRequest(method, "/projects/p1/volumes/v1", nil)
		req.Header.Set("X-Auth-Token", "tok")
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		return lastVerdict(t, m), rec.Code
	}
	good := env(2, 10, "available", "admin")
	shapes := map[string]func(policy FailPolicy) (Verdict, int){
		// Pre-phase outage from the first request: the DELETE's first
		// clause wave fails, then its demanded path alone.
		"pre-fault": func(policy FailPolicy) (Verdict, int) {
			prov := &switchProvider{env: good}
			prov.fail.Store(true)
			return sendReq(build(policy, prov), http.MethodDelete)
		},
		// Post-phase outage: the pre-check passes, the post snapshot
		// fails mid-request.
		"post-fault": func(policy FailPolicy) (Verdict, int) {
			return sendReq(build(policy, &prePostProvider{pre: good}), http.MethodDelete)
		},
	}
	type want struct {
		outcome   Outcome
		code      int
		forwarded bool
		fetched   int
		detail    string
	}
	cells := []struct {
		policy FailPolicy
		shape  string
		want   want
	}{
		{FailClosed, "pre-fault", want{Error, http.StatusBadGateway, false, 6,
			"pre-state snapshot: fake failure"}},
		{FailClosed, "post-fault", want{Error, http.StatusBadGateway, true, 6,
			"post-state snapshot: fake failure"}},
		{FailOpen, "pre-fault", want{Unverified, http.StatusNoContent, true, 6,
			"pre-state snapshot failed (fail-open): fake failure"}},
		{FailOpen, "post-fault", want{Unverified, http.StatusNoContent, true, 6,
			"post-state snapshot failed (fail-open): fake failure"}},
	}
	for _, cell := range cells {
		v, code := shapes[cell.shape](cell.policy)
		got := want{v.Outcome, code, v.Forwarded, v.FetchedPaths, v.Detail}
		if got != cell.want {
			t.Errorf("%s/%s: got %+v, want %+v", cell.policy, cell.shape, got, cell.want)
		}
	}
}
