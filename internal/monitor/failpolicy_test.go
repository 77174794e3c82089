package monitor

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// switchProvider serves a fixed snapshot until fail is flipped, then
// errors — the shape of a cloud that was healthy and went down.
type switchProvider struct {
	env  ocl.MapEnv
	fail atomic.Bool
}

func (p *switchProvider) Snapshot(_ *RequestContext, paths []string) (ocl.MapEnv, error) {
	if p.fail.Load() {
		return nil, errFake
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// prePostProvider serves the pre-state and errors on post-state reads.
type prePostProvider struct {
	pre   ocl.MapEnv
	calls int
}

func (p *prePostProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	p.calls++
	if ctx.Phase == PhasePost {
		return nil, errFake
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.pre[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// newPolicyMonitor is newMonitor with the degradation knobs exposed.
func newPolicyMonitor(t *testing.T, cfg Config) (*Monitor, *verdictSink) {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	sink := &verdictSink{}
	cfg.Contracts = set
	cfg.Routes = diffRoutes()
	cfg.OnVerdict = sink.add
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, sink
}

func doGet(t *testing.T, m *Monitor) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return rec
}

func TestFailPolicyString(t *testing.T) {
	cases := map[FailPolicy]string{FailClosed: "fail-closed", FailOpen: "fail-open"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Unverified.String() != "unverified" {
		t.Errorf("Unverified.String() = %q", Unverified.String())
	}
}

func TestFailOpenForwardsUnverified(t *testing.T) {
	p := &switchProvider{}
	p.fail.Store(true)
	f := &fakeForwarder{status: 200}
	m, sink := newPolicyMonitor(t, Config{Provider: p, Forward: f, FailPolicy: FailOpen})
	rec := doGet(t, m)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (fail-open serves the backend response)", rec.Code)
	}
	v := sink.last(t)
	if v.Outcome != Unverified || !v.Forwarded {
		t.Fatalf("verdict = %s forwarded=%v, want unverified forwarded", v.Outcome, v.Forwarded)
	}
	if f.calls != 1 {
		t.Fatalf("forwarder called %d times, want 1", f.calls)
	}
}

func TestFailOpenForwardFailureIsError(t *testing.T) {
	p := &switchProvider{}
	p.fail.Store(true)
	f := &fakeForwarder{err: errFake}
	m, sink := newPolicyMonitor(t, Config{Provider: p, Forward: f, FailPolicy: FailOpen})
	rec := doGet(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (nothing to serve when the forward also fails)", rec.Code)
	}
	if v := sink.last(t); v.Outcome != Error || v.Forwarded {
		t.Fatalf("verdict = %s forwarded=%v, want error not-forwarded", v.Outcome, v.Forwarded)
	}
}

func TestFailClosedNeverForwardsOnSnapshotError(t *testing.T) {
	p := &switchProvider{}
	p.fail.Store(true)
	f := &fakeForwarder{status: 200}
	m, sink := newPolicyMonitor(t, Config{Provider: p, Forward: f}) // default policy
	rec := doGet(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", rec.Code)
	}
	if f.calls != 0 {
		t.Fatalf("fail-closed forwarded %d requests on snapshot error", f.calls)
	}
	if v := sink.last(t); v.Outcome != Error {
		t.Fatalf("verdict = %s, want error", v.Outcome)
	}
}

func TestPostSnapshotErrorPerPolicy(t *testing.T) {
	cases := []struct {
		policy  FailPolicy
		want    Outcome
		wantRec int
	}{
		{FailClosed, Error, http.StatusBadGateway},
		{FailOpen, Unverified, http.StatusNoContent},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			p := &prePostProvider{pre: env(2, 10, "available", "admin")}
			f := &fakeForwarder{status: 204}
			m, sink := newPolicyMonitor(t, Config{Provider: p, Forward: f, FailPolicy: tc.policy})
			rec := doDelete(t, m)
			if rec.Code != tc.wantRec {
				t.Fatalf("status %d, want %d", rec.Code, tc.wantRec)
			}
			v := sink.last(t)
			if v.Outcome != tc.want {
				t.Fatalf("verdict = %s (detail %q), want %s", v.Outcome, v.Detail, tc.want)
			}
			if !v.Forwarded {
				t.Fatal("post-snapshot failure implies the request was forwarded")
			}
		})
	}
}
