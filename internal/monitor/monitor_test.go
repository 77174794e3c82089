package monitor

import (
	"net/http"
	"net/http/httptest"
	"runtime"
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

// newMonitor builds a monitor over the standard test routes and returns
// it with the sink its OnVerdict hook feeds.
func newMonitor(t *testing.T, mode Mode, p StateProvider, f Forwarder) (*Monitor, *verdictSink) {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	sink := &verdictSink{}
	m, err := New(Config{
		Contracts: set,
		Routes:    diffRoutes(),
		Provider:  p,
		Forward:   f,
		Mode:      mode,
		OnVerdict: sink.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, sink
}

// verdictSink collects the verdicts a monitor records; install its add
// method as Config.OnVerdict. The hook runs on request goroutines and
// async post workers, so the sink locks.
type verdictSink struct {
	mu       sync.Mutex
	verdicts []Verdict
}

func (s *verdictSink) add(v Verdict) {
	s.mu.Lock()
	s.verdicts = append(s.verdicts, v)
	s.mu.Unlock()
}

// all returns the verdicts in the order they were recorded.
func (s *verdictSink) all() []Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Verdict(nil), s.verdicts...)
}

// last returns the most recently recorded verdict.
func (s *verdictSink) last(t *testing.T) Verdict {
	t.Helper()
	vs := s.all()
	if len(vs) == 0 {
		t.Fatal("no verdicts recorded")
	}
	return vs[len(vs)-1]
}

func doDelete(t *testing.T, m *Monitor) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return rec
}

func TestEnforceBlocksForbiddenRequest(t *testing.T) {
	// member tries DELETE: contract pre fails, nothing forwarded.
	p := &fakeProvider{pre: env(1, 10, "available", "member")}
	f := &fakeForwarder{status: 204}
	m, sink := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusPreconditionFailed {
		t.Errorf("status = %d, want 412", rec.Code)
	}
	if f.calls != 0 {
		t.Error("blocked request must not be forwarded")
	}
	v := sink.last(t)
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
	m, sink := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusNoContent {
		t.Errorf("status = %d, want backend 204", rec.Code)
	}
	v := sink.last(t)
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
	m, sink := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409 violation", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "violation:postcondition") {
		t.Errorf("body = %s", rec.Body.String())
	}
	v := sink.last(t)
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
	m, sink := newMonitor(t, Observe, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409", rec.Code)
	}
	v := sink.last(t)
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
	m, sink := newMonitor(t, Observe, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusForbidden {
		t.Errorf("status = %d, want backend 403 passed through", rec.Code)
	}
	v := sink.last(t)
	if v.Outcome != Rejected {
		t.Errorf("outcome = %v", v.Outcome)
	}
}

func TestAllowedRejectedViolation(t *testing.T) {
	// Admin's valid DELETE rejected by the cloud: authorized user denied.
	p := &fakeProvider{pre: env(2, 10, "available", "admin")}
	f := &fakeForwarder{status: 403}
	m, sink := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409", rec.Code)
	}
	v := sink.last(t)
	if v.Outcome != ViolationAllowedRejected {
		t.Errorf("outcome = %v", v.Outcome)
	}
}

func TestProviderErrorIsMonitorError(t *testing.T) {
	p := &fakeProvider{err: errFake}
	f := &fakeForwarder{status: 204}
	m, sink := newMonitor(t, Enforce, p, f)
	rec := doDelete(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rec.Code)
	}
	v := sink.last(t)
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
	m, _ := newMonitor(t, Enforce, p, f)
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
	m, sink := newMonitor(t, Enforce, p, &fakeForwarder{status: 200})
	req := httptest.NewRequest(http.MethodGet, "/nonsense", nil)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
	if len(sink.all()) != 0 {
		t.Error("unrouted requests must not be recorded as verdicts")
	}
}

func TestCoverageTracking(t *testing.T) {
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
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
	if len(m.Outcomes()) != 0 || m.Coverage()["1.4"] != 0 {
		t.Error("ResetLog did not clear state")
	}
	for _, n := range m.TransitionCoverage() {
		if n != 0 {
			t.Error("transition coverage survives reset")
		}
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
	m, _ := newMonitor(t, 0, p, &fakeForwarder{status: 204})
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

// parser adapts an option parser to the table of TestParseOptions.
func parser[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) {
		v, err := parse(s)
		return v, err
	}
}

// TestParseOptions: every flag value of the monitor's options parses to
// its constant, and an unknown value is rejected with an error naming it.
func TestParseOptions(t *testing.T) {
	for _, tc := range []struct {
		option string
		parse  func(string) (any, error)
		values map[string]any
	}{
		{"mode", parser(ParseMode), map[string]any{"enforce": Enforce, "observe": Observe}},
		{"level", parser(ParseCheckLevel), map[string]any{"full": CheckFull, "pre-only": CheckPreOnly}},
		{"fail policy", parser(ParseFailPolicy), map[string]any{"closed": FailClosed, "": FailClosed, "open": FailOpen}},
		{"post", parser(ParsePostMode), map[string]any{"sync": PostSync, "async": PostAsync}},
	} {
		for in, want := range tc.values {
			if got, err := tc.parse(in); err != nil || got != want {
				t.Errorf("%s %q parsed to %v, %v; want %v", tc.option, in, got, err, want)
			}
		}
		if _, err := tc.parse("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s \"bogus\": %v, want an error naming the value", tc.option, err)
		}
	}
}

func TestPostRouteOnCollection(t *testing.T) {
	p := &fakeProvider{
		pre:  env(0, 10, "", "admin"),
		post: env(1, 10, "", "admin"),
	}
	m, sink := newMonitor(t, Enforce, p, &fakeForwarder{status: 202})
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes",
		strings.NewReader(`{"volume":{"name":"n","size":1}}`))
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Errorf("status = %d, body=%s", rec.Code, rec.Body.String())
	}
	v := sink.last(t)
	if v.Outcome != OK {
		t.Errorf("outcome = %v (%s)", v.Outcome, v.Detail)
	}
}

// TestShardedCountersAggregate drives concurrent requests and checks that
// the outcome counters sum to the request count and that the OnVerdict
// hook received each verdict exactly once.
func TestShardedCountersAggregate(t *testing.T) {
	e := env(1, 10, "available", "member")
	m, sink := newMonitor(t, Enforce, &fakeProvider{pre: e, post: e}, okForwarder{})

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
	if got := len(sink.all()); got != goroutines*per {
		t.Errorf("hook received %d verdicts, want %d", got, goroutines*per)
	}
}

// TestHeapDoesNotGrowWithRequests: the monitor keeps counters, not
// verdicts, so its live heap after 5,000 more requests is what it was
// after the first 10 — under either post mode.
func TestHeapDoesNotGrowWithRequests(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []PostMode{PostSync, PostAsync} {
		t.Run(post.String(), func(t *testing.T) {
			e := env(20, 100, "available", "admin") // 20-volume listings
			m, err := New(Config{
				Contracts: set,
				Routes:    diffRoutes(),
				Provider:  &fakeProvider{pre: e, post: e},
				Forward:   okForwarder{},
				Post:      post,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			liveHeap := func(requests int) uint64 {
				for i := 0; i < requests; i++ {
					doGet(t, m)
				}
				m.DrainPost()
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := liveHeap(10)
			after := liveHeap(5000)
			if after > before && after-before >= 256<<10 {
				t.Errorf("live heap grew by %d KiB over 5,000 requests, want < 256 KiB", (after-before)>>10)
			}
		})
	}
}
