package monitor

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// fakeProvider returns scripted snapshots: pre-phase reads serve pre,
// post-phase reads serve post (the monitor issues several Snapshot
// calls per phase, so the phase on the request context — not the call
// count — selects the script).
type fakeProvider struct {
	pre, post ocl.MapEnv
	err       error
	// mu guards the call counters: with PostAsync a worker's post-phase
	// read overlaps the next request's pre-phase read.
	mu        sync.Mutex
	calls     int
	postCalls int
}

func (f *fakeProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	f.mu.Lock()
	f.calls++
	if ctx.Phase == PhasePost {
		f.postCalls++
	}
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	src := f.pre
	if ctx.Phase == PhasePost {
		src = f.post
	}
	out := make(ocl.MapEnv, len(paths))
	for _, p := range paths {
		if v, ok := src[p]; ok {
			out[p] = v
		}
	}
	return out, nil
}

// fakeForwarder returns a scripted backend response.
type fakeForwarder struct {
	status int
	err    error
	calls  int
}

func (f *fakeForwarder) Forward(*http.Request, *Route, map[string]string) (*BackendResponse, error) {
	f.calls++
	if f.err != nil {
		return nil, f.err
	}
	return &BackendResponse{StatusCode: f.status, Header: http.Header{}, Body: []byte("{}")}, nil
}

// okForwarder is a stateless (and therefore race-free) backend stub for
// concurrent tests; fakeForwarder counts calls without locking.
type okForwarder struct{}

func (okForwarder) Forward(*http.Request, *Route, map[string]string) (*BackendResponse, error) {
	return &BackendResponse{StatusCode: 200, Header: http.Header{}, Body: []byte("{}")}, nil
}

func env(vols, quota int, status string, roles ...string) ocl.MapEnv {
	elems := make([]ocl.Value, vols)
	for i := range elems {
		elems[i] = ocl.StringVal("v")
	}
	return ocl.MapEnv{
		"project.id":        ocl.StringVal("p1"),
		"project.volumes":   ocl.CollectionVal(elems...),
		"quota_sets.volume": ocl.IntVal(quota),
		"volume.status":     ocl.StringVal(status),
		"user.id.groups":    ocl.StringsVal(roles...),
	}
}

func newMonitor(t *testing.T, mode Mode, p StateProvider, f Forwarder) *Monitor {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Contracts: set,
		Routes:    diffRoutes(),
		Provider:  p,
		Forward:   f,
		Mode:      mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func doDelete(t *testing.T, m *Monitor) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return rec
}

func lastVerdict(t *testing.T, m *Monitor) Verdict {
	t.Helper()
	log := m.Log()
	if len(log) == 0 {
		t.Fatal("no verdicts logged")
	}
	return log[len(log)-1]
}

func TestEnforceBlocksForbiddenRequest(t *testing.T) {
	// member tries DELETE: contract pre fails, nothing forwarded.
	p := &fakeProvider{pre: env(1, 10, "available", "member")}
	f := &fakeForwarder{status: 204}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusPreconditionFailed {
		t.Errorf("status = %d, want 412", rec.Code)
	}
	if f.calls != 0 {
		t.Error("blocked request must not be forwarded")
	}
	v := lastVerdict(t, m)
	if v.Outcome != Blocked || v.PreOK || v.Forwarded {
		t.Errorf("verdict = %+v", v)
	}
}

func TestEnforceForwardsPermittedRequest(t *testing.T) {
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	f := &fakeForwarder{status: 204}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusNoContent {
		t.Errorf("status = %d, want backend 204", rec.Code)
	}
	v := lastVerdict(t, m)
	if v.Outcome != OK || !v.PreOK || !v.PostOK || !v.Forwarded {
		t.Errorf("verdict = %+v", v)
	}
	if v.BackendStatus != 204 {
		t.Errorf("backend status = %d", v.BackendStatus)
	}
	if len(v.MatchedSecReqs) != 1 || v.MatchedSecReqs[0] != "1.4" {
		t.Errorf("matched SecReqs = %v", v.MatchedSecReqs)
	}
}

func TestPostconditionViolationDetected(t *testing.T) {
	// Backend says 204 but the volume count did not change: the DeleteIsNoOp
	// mutant's signature.
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(2, 10, "available", "admin"),
	}
	f := &fakeForwarder{status: 204}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409 violation", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "violation:postcondition") {
		t.Errorf("body = %s", rec.Body.String())
	}
	v := lastVerdict(t, m)
	if v.Outcome != ViolationPostcondition {
		t.Errorf("outcome = %v", v.Outcome)
	}
}

func TestObserveDetectsForbiddenAccepted(t *testing.T) {
	// Privilege escalation: member's DELETE is accepted by the cloud.
	p := &fakeProvider{
		pre:  env(2, 10, "available", "member"),
		post: env(1, 10, "available", "member"),
	}
	f := &fakeForwarder{status: 204}
	m := newMonitor(t, Observe, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409", rec.Code)
	}
	v := lastVerdict(t, m)
	if v.Outcome != ViolationForbiddenAccepted {
		t.Errorf("outcome = %v", v.Outcome)
	}
	if f.calls != 1 {
		t.Error("observe mode must forward")
	}
}

func TestObserveAcceptsCorrectRejection(t *testing.T) {
	p := &fakeProvider{pre: env(2, 10, "available", "member")}
	f := &fakeForwarder{status: 403}
	m := newMonitor(t, Observe, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusForbidden {
		t.Errorf("status = %d, want backend 403 passed through", rec.Code)
	}
	v := lastVerdict(t, m)
	if v.Outcome != Rejected {
		t.Errorf("outcome = %v", v.Outcome)
	}
}

func TestAllowedRejectedViolation(t *testing.T) {
	// Admin's valid DELETE rejected by the cloud: authorized user denied.
	p := &fakeProvider{pre: env(2, 10, "available", "admin")}
	f := &fakeForwarder{status: 403}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409", rec.Code)
	}
	v := lastVerdict(t, m)
	if v.Outcome != ViolationAllowedRejected {
		t.Errorf("outcome = %v", v.Outcome)
	}
}

func TestProviderErrorIsMonitorError(t *testing.T) {
	p := &fakeProvider{err: errFake}
	f := &fakeForwarder{status: 204}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rec.Code)
	}
	v := lastVerdict(t, m)
	if v.Outcome != Error {
		t.Errorf("outcome = %v", v.Outcome)
	}
	if f.calls != 0 {
		t.Error("must not forward after snapshot failure")
	}
}

func TestForwarderErrorIsMonitorError(t *testing.T) {
	p := &fakeProvider{pre: env(2, 10, "available", "admin")}
	f := &fakeForwarder{err: errFake}
	m := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rec.Code)
	}
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake failure" }

func TestUnroutedRequestIs404(t *testing.T) {
	p := &fakeProvider{pre: env(1, 10, "available", "admin")}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: 200})
	req := httptest.NewRequest(http.MethodGet, "/nonsense", nil)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
	if len(m.Log()) != 0 {
		t.Error("unrouted requests must not be logged as verdicts")
	}
}

func TestCoverageTracking(t *testing.T) {
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	doDelete(t, m)
	cov := m.Coverage()
	if cov["1.4"] != 1 {
		t.Errorf("coverage[1.4] = %d, want 1", cov["1.4"])
	}
	// Declared but unexercised requirements appear with zero.
	for _, s := range []string{"1.1", "1.2", "1.3"} {
		if c, ok := cov[s]; !ok || c != 0 {
			t.Errorf("coverage[%s] = %d,%v; want 0,true", s, c, ok)
		}
	}
	if got := m.Outcomes()[OK]; got != 1 {
		t.Errorf("outcomes[OK] = %d", got)
	}
	// Transition coverage: exactly one DELETE transition matched (the env
	// has 2 of 10 volumes: the not-full, size>1 case).
	tc := m.TransitionCoverage()
	matchedCount := 0
	total := 0
	for key, n := range tc {
		total++
		if n > 0 {
			matchedCount += n
			if !strings.Contains(key, "DELETE(volume)") {
				t.Errorf("unexpected matched transition %q", key)
			}
		}
	}
	if matchedCount != 1 {
		t.Errorf("matched transitions = %d, want 1 (%v)", matchedCount, tc)
	}
	if total != 11 {
		t.Errorf("transition universe = %d, want 11 (all model transitions)", total)
	}
	m.ResetLog()
	if len(m.Log()) != 0 || m.Coverage()["1.4"] != 0 {
		t.Error("ResetLog did not clear state")
	}
	for _, n := range m.TransitionCoverage() {
		if n != 0 {
			t.Error("transition coverage survives reset")
		}
	}
}

func TestViolationsFilter(t *testing.T) {
	p := &fakeProvider{pre: env(2, 10, "available", "admin"), post: env(2, 10, "available", "admin")}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	doDelete(t, m)
	if got := m.Violations(); len(got) != 1 || got[0].Outcome != ViolationPostcondition {
		t.Errorf("Violations = %v", got)
	}
}

func TestLogBounded(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	p := &fakeProvider{pre: env(1, 10, "available", "member")}
	m, err := New(Config{
		Contracts: set,
		Routes: []Route{{
			Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/x/{project_id}/{volume_id}",
		}},
		Provider: p,
		Forward:  &fakeForwarder{status: 403},
		Mode:     Enforce,
		MaxLog:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.calls = 0 // keep returning the pre env
		doDelete(t, m)
	}
	if got := len(m.Log()); got != 3 {
		t.Errorf("log length = %d, want 3", got)
	}
}

func TestNewValidation(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{
		Contracts: set,
		Routes: []Route{{
			Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
			Pattern: "/x", Backend: "/y",
		}},
		Provider: &fakeProvider{},
		Forward:  &fakeForwarder{},
	}
	if _, err := New(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*Config){
		"no contracts": func(c *Config) { c.Contracts = nil },
		"no provider":  func(c *Config) { c.Provider = nil },
		"no forwarder": func(c *Config) { c.Forward = nil },
		"no routes":    func(c *Config) { c.Routes = nil },
		"route without contract": func(c *Config) {
			c.Routes = []Route{{Trigger: uml.Trigger{Method: uml.GET, Resource: "ghost"}}}
		},
		"conflicting routes": func(c *Config) {
			r := Route{
				Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
				Pattern: "/x", Backend: "/y",
			}
			c.Routes = []Route{r, r}
		},
	} {
		cfg := valid
		corrupt(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestDefaultModeIsEnforce(t *testing.T) {
	p := &fakeProvider{pre: env(1, 10, "available", "admin")}
	m := newMonitor(t, 0, p, &fakeForwarder{status: 204})
	if m.Mode() != Enforce {
		t.Errorf("default mode = %v", m.Mode())
	}
}

func TestModeAndOutcomeStrings(t *testing.T) {
	if Enforce.String() != "enforce" || Observe.String() != "observe" {
		t.Error("mode names wrong")
	}
	for o, want := range map[Outcome]string{
		OK:                         "ok",
		Blocked:                    "blocked",
		Rejected:                   "rejected",
		ViolationForbiddenAccepted: "violation:forbidden-accepted",
		ViolationAllowedRejected:   "violation:allowed-rejected",
		ViolationPostcondition:     "violation:postcondition",
		Error:                      "error",
	} {
		if o.String() != want {
			t.Errorf("Outcome %d = %q, want %q", o, o.String(), want)
		}
	}
	if !ViolationPostcondition.IsViolation() || OK.IsViolation() || Blocked.IsViolation() {
		t.Error("IsViolation classification wrong")
	}
}

func TestPostRouteOnCollection(t *testing.T) {
	p := &fakeProvider{
		pre:  env(0, 10, "", "admin"),
		post: env(1, 10, "", "admin"),
	}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: 202})
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes",
		strings.NewReader(`{"volume":{"name":"n","size":1}}`))
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Errorf("status = %d, body=%s", rec.Code, rec.Body.String())
	}
	v := lastVerdict(t, m)
	if v.Outcome != OK {
		t.Errorf("outcome = %v (%s)", v.Outcome, v.Detail)
	}
}

// TestShardedCountersAggregate drives concurrent requests and checks that
// the sharded outcome/coverage counters and the merged log agree.
func TestShardedCountersAggregate(t *testing.T) {
	e := env(1, 10, "available", "member")
	m := newMonitor(t, Enforce, &fakeProvider{pre: e, post: e}, okForwarder{})

	const goroutines, per = 16, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				doGet(t, m)
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, n := range m.Outcomes() {
		total += n
	}
	if total != goroutines*per {
		t.Errorf("outcome counters sum to %d, want %d", total, goroutines*per)
	}
	log := m.Log()
	if len(log) != goroutines*per {
		t.Errorf("log holds %d verdicts, want %d", len(log), goroutines*per)
	}
	// Log must be ordered by arrival sequence.
	for i := 1; i < len(log); i++ {
		if log[i-1].seq >= log[i].seq {
			t.Fatalf("log out of order at %d: %d then %d", i, log[i-1].seq, log[i].seq)
		}
	}
}
