package monitor

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// newObsMonitor wires an audit sink into the standard test monitor.
func newObsMonitor(t *testing.T, mode Mode, p StateProvider, f Forwarder, audit *obs.AuditLog) *Monitor {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	routes := []Route{
		{Trigger: uml.Trigger{Method: uml.GET, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
		{Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
	}
	m, err := New(Config{
		Contracts: set,
		Routes:    routes,
		Provider:  p,
		Forward:   f,
		Mode:      mode,
		Audit:     audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVerdictTraceRecorded(t *testing.T) {
	p := &fakeProvider{
		pre:  env(1, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m, sink := newMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK})
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	m.ServeHTTP(httptest.NewRecorder(), req)

	v := sink.last(t)
	if v.Outcome != OK {
		t.Fatalf("outcome = %v", v.Outcome)
	}
	// A forwarded GET passes through every stage.
	for _, stage := range []obs.Stage{
		obs.StagePreSnapshot, obs.StagePreEval,
		obs.StageForward, obs.StagePostSnapshot, obs.StagePostEval,
	} {
		if v.Trace[stage] <= 0 {
			t.Errorf("stage %s has no span: %v", stage, v.Trace)
		}
	}
	sums := m.StageSummaries()
	if sums["forward"].Count != 1 {
		t.Errorf("tracer summaries = %v", sums)
	}
}

func TestBlockedSkipsPostStages(t *testing.T) {
	p := &fakeProvider{pre: env(1, 10, "available")} // no roles: pre fails
	fw := &fakeForwarder{status: http.StatusOK}
	m, sink := newMonitor(t, Enforce, p, fw)
	doDelete(t, m)
	v := sink.last(t)
	if v.Outcome != Blocked {
		t.Fatalf("outcome = %v", v.Outcome)
	}
	if v.Trace[obs.StageForward] != 0 || v.Trace[obs.StagePostEval] != 0 {
		t.Errorf("blocked request has post-block spans: %v", v.Trace)
	}
	if v.FailingClause == "" {
		t.Error("blocked verdict has no failing clause")
	}
}

func TestAuditSinkReceivesOnlyViolations(t *testing.T) {
	dir := t.TempDir()
	audit, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &fakeProvider{
		pre:  env(1, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m := newObsMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK}, audit)
	doGet(t, m) // OK: must NOT be audited

	p2 := &fakeProvider{pre: env(1, 10, "available")} // no roles: blocked
	m2 := newObsMonitor(t, Enforce, p2, &fakeForwarder{status: http.StatusOK}, audit)
	doGet(t, m2)

	if err := audit.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("audited %d records, want 1 (the blocked one)", len(res.Records))
	}
	rec := res.Records[0]
	if rec.Outcome != Blocked.String() {
		t.Errorf("audited outcome = %q", rec.Outcome)
	}
	if len(rec.SecReqs) == 0 {
		t.Error("audit record names no SecReqs")
	}
	if rec.FailingClause == "" {
		t.Error("audit record has no failing clause")
	}
	if len(rec.Pre) == 0 {
		t.Error("audit record has no pre-state snapshot")
	}
	if len(rec.StageNanos) == 0 {
		t.Error("audit record has no stage timings")
	}
}

func TestRegisterMetricsAgreesWithCounters(t *testing.T) {
	p := &fakeProvider{
		pre:  env(1, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK})
	doGet(t, m)
	doGet(t, m)

	reg := &obs.Registry{}
	m.RegisterMetrics(reg)
	samples, err := obs.ParseText([]byte(reg.Render()))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := obs.CounterByLabel(samples, "cloudmon_verdicts_total", "outcome")
	for outcome, n := range m.Outcomes() {
		if int(verdicts[outcome.String()]) != n {
			t.Errorf("metrics %s = %v, counters say %d", outcome, verdicts[outcome.String()], n)
		}
	}
	if verdicts[OK.String()] != 2 {
		t.Errorf("ok = %v, want 2", verdicts[OK.String()])
	}
	// Every declared outcome class appears, even at zero.
	if len(obs.Find(samples, "cloudmon_verdicts_total")) != int(Unverified) {
		t.Errorf("verdict series = %d, want %d", len(obs.Find(samples, "cloudmon_verdicts_total")), int(Unverified))
	}
	if snap, ok := obs.HistogramFromSamples(samples, "cloudmon_stage_duration_seconds", "stage", "forward"); !ok || snap.Count != 2 {
		t.Errorf("forward stage histogram count = %d (ok=%v), want 2", snap.Count, ok)
	}
	secreqs := obs.CounterByLabel(samples, "cloudmon_secreq_matched_total", "secreq")
	if len(secreqs) == 0 {
		t.Error("no secreq coverage series")
	}
}

func TestResetLogClearsObsState(t *testing.T) {
	p := &fakeProvider{
		pre:  env(1, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK})
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	m.ServeHTTP(httptest.NewRecorder(), req)
	if len(m.Outcomes()) == 0 || len(m.StageSummaries()) == 0 {
		t.Fatal("no state to reset")
	}
	m.ResetLog()
	if len(m.Outcomes()) != 0 {
		t.Errorf("Outcomes after reset = %v", m.Outcomes())
	}
	if len(m.StageSummaries()) != 0 {
		t.Errorf("StageSummaries after reset = %v", m.StageSummaries())
	}
	for sr, n := range m.Coverage() {
		if n != 0 {
			t.Errorf("Coverage[%s] = %d after reset", sr, n)
		}
	}

	// An async monitor whose second DELETE waited on the write fence for
	// the first's deferred check: every async counter must reset.
	gate := make(chan struct{})
	gp := &gatedPostProvider{env: env(2, 10, "available", "admin"), gate: gate}
	am, err := New(Config{
		Contracts: m.contracts,
		Routes:    diffRoutes(),
		Provider:  gp,
		Forward:   &fakeForwarder{status: http.StatusNoContent},
		Mode:      Enforce,
		Post:      PostAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer am.Close()
	doDelete(t, am)
	done := make(chan struct{})
	go func() {
		defer close(done)
		doDelete(t, am)
	}()
	for am.AsyncPostStats().FenceWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	am.DrainPost()
	st := am.AsyncPostStats()
	if st.Enqueued != 2 || st.LateViolations != 2 || st.FenceWaits != 1 || st.Lag.Count != 2 {
		t.Fatalf("before reset: %+v, want 2 enqueued, 2 late violations, 1 fence wait, 2 lag samples", st)
	}
	am.ResetLog()
	if st := am.AsyncPostStats(); st.Enqueued != 0 || st.Shed != 0 || st.LateViolations != 0 ||
		st.FenceWaits != 0 || st.Pending != 0 || st.Lag.Count != 0 {
		t.Errorf("AsyncPostStats after reset = %+v, want every counter 0", st)
	}
}

// gatedPostProvider serves one state in both phases and holds every
// post-phase read until gate closes.
type gatedPostProvider struct {
	env  ocl.MapEnv
	gate chan struct{}
}

func (p *gatedPostProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	if ctx.Phase == PhasePost {
		<-p.gate
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}
