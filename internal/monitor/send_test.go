package monitor

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/faults"
	"cloudmon/internal/httpkit"
)

// The forwarder sends each request in one round trip on its client's
// transport (httpkit.Send), as a reverse proxy does. These tests hold it
// to that at the monitor's edge.

// TestForwardRedirectReachesClient: a cloud answering a forwarded POST
// with 307 and a Location on another server gets its answer to the
// client as it is. The other server receives nothing, so the verdict
// judges the request the client sent, and records the 307.
func TestForwardRedirectReachesClient(t *testing.T) {
	var elsewhere atomic.Int32
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer other.Close()
	location := other.URL + "/volume/v3/p1/volumes"
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, location, http.StatusTemporaryRedirect)
	}))
	defer cloud.Close()

	// The project is at its quota, so the contract forbids the create and
	// Observe mode forwards it to see the cloud refuse.
	p := &fakeProvider{pre: env(10, 10, "", "admin"), post: env(10, 10, "", "admin")}
	m, sink := newMonitor(t, Observe, p, &HTTPForwarder{BaseURL: cloud.URL})
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes",
		strings.NewReader(`{"volume":{"name":"n","size":1}}`))
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)

	if rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != location {
		t.Errorf("client got %d, Location %q; want 307 to %s", rec.Code, rec.Header().Get("Location"), location)
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the Location's server received %d requests, want none", n)
	}
	v := sink.last(t)
	if v.BackendStatus != http.StatusTemporaryRedirect || v.Outcome != Rejected {
		t.Errorf("verdict %s with backend status %d (%s); want rejected, 307", v.Outcome, v.BackendStatus, v.Detail)
	}
}

// TestForwardEndsAtClientTimeout: with no Timeout of its own, the
// forwarder still ends a hung forward at its client's Timeout, and the
// verdict is Error.
func TestForwardEndsAtClientTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	inj := faults.NewInjector(&faults.Profile{Rules: []faults.Rule{
		{Kind: faults.KindTimeout, Path: "/volume/v3/", Every: 1},
	}})
	cloud := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	client := &http.Client{Timeout: timeout, Transport: inj.RoundTripper(httpkit.HandlerRoundTripper(cloud))}
	e := env(1, 10, "available", "admin")
	m, sink := newMonitor(t, Enforce, &fakeProvider{pre: e, post: e}, &HTTPForwarder{BaseURL: "http://cloud.internal", Client: client})

	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	elapsed := time.Since(start)

	if v := sink.last(t); v.Outcome != Error || rec.Code != http.StatusBadGateway {
		t.Errorf("verdict %s, status %d (%s); want error, 502", v.Outcome, rec.Code, v.Detail)
	}
	if n := inj.Counts()[string(faults.KindTimeout)]; n != 1 {
		t.Errorf("the timeout rule fired %d times, want 1", n)
	}
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("the forward took %v, want the %v timeout plus slack", elapsed, timeout)
	}
}

// TestWriteBackendDropsHopByHop: the headers of the cloud's connection to
// the monitor, and a header its Connection names, do not reach the
// client; every other header does.
func TestWriteBackendDropsHopByHop(t *testing.T) {
	cloud := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Connection", "close, X-Cloud-Hop")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("X-Cloud-Hop", "1")
		h.Set("Content-Type", "application/json")
		h.Set("X-Openstack-Request-Id", "req-1")
		_, _ = w.Write([]byte("{}"))
	})
	e := env(1, 10, "available", "admin")
	fwd := &HTTPForwarder{BaseURL: "http://cloud.internal", Client: httpkit.HandlerClient(cloud)}
	m, sink := newMonitor(t, Enforce, &fakeProvider{pre: e, post: e}, fwd)
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)

	if v := sink.last(t); v.Outcome != OK || rec.Code != http.StatusOK || rec.Body.String() != "{}" {
		t.Fatalf("verdict %s, response %d %q; want ok, 200 {}", v.Outcome, rec.Code, rec.Body.String())
	}
	got := rec.Header()
	for _, h := range []string{"Connection", "Keep-Alive", "X-Cloud-Hop"} {
		if v, ok := got[h]; ok {
			t.Errorf("the client got the cloud's %s: %q", h, v)
		}
	}
	if got.Get("Content-Type") != "application/json" || got.Get("X-Openstack-Request-Id") != "req-1" {
		t.Errorf("end-to-end headers lost: %v", got)
	}
}
