package monitor

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/ocl"
)

// slowSecondSnapshot fails only on the post-state snapshot, isolating the
// error path after forwarding.
type slowSecondSnapshot struct {
	pre   ocl.MapEnv
	calls int
}

func (f *slowSecondSnapshot) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	f.calls++
	if ctx.Phase == PhasePost {
		return nil, errFake
	}
	out := make(ocl.MapEnv, len(paths))
	for _, p := range paths {
		if v, ok := f.pre[p]; ok {
			out[p] = v
		}
	}
	return out, nil
}

func TestPostSnapshotFailureIsError(t *testing.T) {
	p := &slowSecondSnapshot{pre: env(2, 10, "available", "admin")}
	m, sink := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	rec := doDelete(t, m)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rec.Code)
	}
	v := sink.last(t)
	if v.Outcome != Error || !v.Forwarded {
		t.Errorf("verdict = %+v", v)
	}
	if !strings.Contains(v.Detail, "post-state snapshot") {
		t.Errorf("detail = %q", v.Detail)
	}
}

// headerForwarder returns a response with headers and body to verify
// pass-through fidelity.
type headerForwarder struct{}

func (headerForwarder) Forward(*http.Request, *Route, map[string]string) (*BackendResponse, error) {
	h := http.Header{}
	h.Set("X-Backend", "cinder")
	h.Add("X-Multi", "a")
	h.Add("X-Multi", "b")
	return &BackendResponse{StatusCode: 200, Header: h, Body: []byte(`{"volume":{}}`)}, nil
}

func TestBackendHeadersAndBodyPassThrough(t *testing.T) {
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(2, 10, "available", "admin"),
	}
	m, _ := newMonitor(t, Enforce, p, headerForwarder{})
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("X-Backend") != "cinder" {
		t.Error("backend header lost")
	}
	if got := rec.Header().Values("X-Multi"); len(got) != 2 {
		t.Errorf("multi-value header = %v", got)
	}
	if rec.Body.String() != `{"volume":{}}` {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestMethodMismatchIs404 ensures a known pattern with the wrong verb does
// not match a different trigger's route.
func TestMethodMismatchIs404(t *testing.T) {
	p := &fakeProvider{pre: env(1, 10, "available", "admin")}
	m, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 200})
	// PATCH is not a modeled method at all.
	req := httptest.NewRequest("PATCH", "/projects/p1/volumes/v1", nil)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("PATCH = %d, want 404", rec.Code)
	}
}

// TestHTTPForwarderSubstitution checks param substitution and header
// propagation of the default forwarder against a live backend.
func TestHTTPForwarderSubstitution(t *testing.T) {
	var gotPath, gotToken, gotBody string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotToken = r.Header.Get("X-Auth-Token")
		buf := make([]byte, 64)
		n, _ := r.Body.Read(buf)
		gotBody = string(buf[:n])
		w.WriteHeader(201)
	}))
	defer backend.Close()

	f := &HTTPForwarder{BaseURL: backend.URL}
	req := httptest.NewRequest(http.MethodPost, "/projects/p9/volumes",
		strings.NewReader(`{"volume":{}}`))
	req.Header.Set("X-Auth-Token", "tok-123")
	route := &Route{Backend: "/volume/v3/{project_id}/volumes"}
	resp, err := f.Forward(req, route, map[string]string{"project_id": "p9"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 201 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if gotPath != "/volume/v3/p9/volumes" {
		t.Errorf("backend path = %q", gotPath)
	}
	if gotToken != "tok-123" {
		t.Errorf("token = %q", gotToken)
	}
	if gotBody != `{"volume":{}}` {
		t.Errorf("body = %q", gotBody)
	}
}

// TestHTTPForwarderEscapesCaptures: the cloud receives the request the
// monitor matched. Each decoded capture goes back into its own path
// segment escaped, so "P?x" cannot start a query and "{volume_id}" cannot
// be taken for the template's next placeholder, in whatever order the
// captures are visited.
func TestHTTPForwarderEscapesCaptures(t *testing.T) {
	var mu sync.Mutex
	var got []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.RequestURI())
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer backend.Close()
	m, _ := newMonitor(t, Observe, &fakeProvider{pre: env(0, 10, "available", "admin"),
		post: env(1, 10, "available", "admin")}, &HTTPForwarder{BaseURL: backend.URL})

	const tries = 200
	for _, tc := range []struct{ method, path, want string }{
		{http.MethodPost, "/projects/P%3Fx/volumes", "POST /volume/v3/P%3Fx/volumes"},
		{http.MethodDelete, "/projects/%7Bvolume_id%7D/volumes/v1", "DELETE /volume/v3/%7Bvolume_id%7D/volumes/v1"},
	} {
		for i := 0; i < tries; i++ {
			mu.Lock()
			got = got[:0]
			mu.Unlock()
			req := httptest.NewRequest(tc.method, tc.path, nil)
			req.Header.Set("X-Auth-Token", "tok")
			m.ServeHTTP(httptest.NewRecorder(), req)
			mu.Lock()
			reached := append([]string(nil), got...)
			mu.Unlock()
			if len(reached) != 1 || reached[0] != tc.want {
				t.Fatalf("%s %s, try %d: the cloud received %q, want %q", tc.method, tc.path, i, reached, tc.want)
			}
		}
	}
}

func TestHTTPForwarderUnreachableBackend(t *testing.T) {
	f := &HTTPForwarder{BaseURL: "http://127.0.0.1:1"}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	if _, err := f.Forward(req, &Route{Backend: "/x"}, nil); err == nil {
		t.Error("unreachable backend accepted")
	}
}

// TestWriteSentOnceWhenTheAnswerIsLost: the cloud applies a POST and then
// drops the connection before answering. The monitor cannot tell whether
// the write landed, so it must not send it again: the cloud applies it
// once, the client gets 502 and the verdict is Error.
func TestWriteSentOnceWhenTheAnswerIsLost(t *testing.T) {
	var applied atomic.Int32
	cloud := httpkit.HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		applied.Add(1)
		panic(http.ErrAbortHandler)
	}))
	m, sink := newMonitor(t, Enforce, &fakeProvider{pre: env(0, 10, "available", "admin")},
		&HTTPForwarder{BaseURL: "http://cloud.internal", Client: cloud})
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes", strings.NewReader(`{"volume":{"size":1}}`))
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if n := applied.Load(); n != 1 {
		t.Errorf("the cloud applied the write %d times, want 1", n)
	}
	if rec.Code != http.StatusBadGateway {
		t.Errorf("the client got %d, want 502", rec.Code)
	}
	if v := sink.last(t); v.Outcome != Error {
		t.Errorf("verdict %s (%s), want error", v.Outcome, v.Detail)
	}
}

// TestHTTPForwarderRejectsOversizedBody sends a POST whose first MiB is
// valid JSON and whose whole body is not: a forwarder that cut the body at
// its limit would deliver a different, valid request. The forward must
// fail instead, the verdict be Error, and nothing reach the cloud; a body
// of exactly the limit still goes through whole. The response side is held
// to the same limit: a cloud answer of exactly the limit reaches the client
// whole, and one byte more fails the forward (Error, 502) rather than
// reaching the client cut.
func TestHTTPForwarderRejectsOversizedBody(t *testing.T) {
	var hits int
	var gotLen int
	respLen := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		b, _ := io.ReadAll(r.Body)
		gotLen = len(b)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, strings.Repeat("x", respLen))
	}))
	defer backend.Close()
	m, sink := newMonitor(t, Enforce, &fakeProvider{pre: env(0, 10, "available", "admin"),
		post: env(1, 10, "available", "admin")}, &HTTPForwarder{BaseURL: backend.URL})

	head := `{"volume":{"size":1}}`
	oversized := head + strings.Repeat(" ", maxForwardBody-len(head)) + `,"junk"`
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes", strings.NewReader(oversized))
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	v := sink.last(t)
	if v.Outcome != Error || v.Forwarded || rec.Code != http.StatusBadGateway {
		t.Errorf("oversized body: outcome %s forwarded %v code %d, want error, not forwarded, 502 (%s)",
			v.Outcome, v.Forwarded, rec.Code, v.Detail)
	}
	if hits != 0 {
		t.Fatalf("the cloud received %d requests carrying a cut body", hits)
	}

	exact := head + strings.Repeat(" ", maxForwardBody-len(head))
	req = httptest.NewRequest(http.MethodPost, "/projects/p1/volumes", strings.NewReader(exact))
	req.Header.Set("X-Auth-Token", "tok")
	m.ServeHTTP(httptest.NewRecorder(), req)
	if v := sink.last(t); v.Outcome != OK || hits != 1 || gotLen != maxForwardBody {
		t.Errorf("body at the limit: outcome %s (%s), %d cloud requests, %d bytes received; want ok, 1, %d",
			v.Outcome, v.Detail, hits, gotLen, maxForwardBody)
	}

	for _, tc := range []struct {
		name    string
		n       int
		outcome Outcome
		code    int
	}{
		{"response at the limit", maxForwardBody, OK, http.StatusAccepted},
		{"oversized response", maxForwardBody + 1, Error, http.StatusBadGateway},
	} {
		respLen = tc.n
		req = httptest.NewRequest(http.MethodPost, "/projects/p1/volumes", strings.NewReader(head))
		req.Header.Set("X-Auth-Token", "tok")
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		v := sink.last(t)
		if v.Outcome != tc.outcome || rec.Code != tc.code {
			t.Errorf("%s: outcome %s code %d, want %s %d (%s)", tc.name, v.Outcome, rec.Code, tc.outcome, tc.code, v.Detail)
		}
		switch body := rec.Body.String(); {
		case tc.outcome == OK && body != strings.Repeat("x", tc.n):
			t.Errorf("%s: the client got %d bytes, want the cloud's %d intact", tc.name, len(body), tc.n)
		case tc.outcome == Error && strings.Contains(body, "xxxx"):
			t.Errorf("%s: %d bytes of the cut cloud answer reached the client", tc.name, strings.Count(body, "x"))
		}
	}
}

// declaredLength answers every request with body, declaring length as its
// Content-Length whatever the body's real length.
type declaredLength struct {
	body   string
	length int64
}

func (d declaredLength) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(d.body)),
		ContentLength: d.length,
		Request:       r,
	}, nil
}

// stalledBody is a client body that never sends a byte: it notes the
// size of the buffer its first read is offered and fails, as a client
// that declared a length, stalled and hung up.
type stalledBody struct{ offered int }

func (b *stalledBody) Read(p []byte) (int, error) {
	if b.offered == 0 {
		b.offered = len(p)
	}
	return 0, io.ErrUnexpectedEOF
}

// TestHTTPForwarderRequestBufferIgnoresDeclaredLength: the client's
// declared Content-Length does not size the buffer its body is read into.
// A client that declares the whole bound and then stalls is offered a
// buffer no larger than a body without a declared length gets, not one
// of the bound.
func TestHTTPForwarderRequestBufferIgnoresDeclaredLength(t *testing.T) {
	body := &stalledBody{}
	req := httptest.NewRequest(http.MethodPost, "/projects/p1/volumes", nil)
	req.Body = io.NopCloser(body)
	req.ContentLength = maxForwardBody
	f := &HTTPForwarder{BaseURL: "http://cloud.internal",
		Client: &http.Client{Transport: declaredLength{body: "{}", length: 2}}}
	if _, err := f.Forward(req, &Route{Backend: "/volume/v3/{project_id}/volumes"}, map[string]string{"project_id": "p1"}); err == nil {
		t.Fatal("a request whose body failed mid-read was forwarded")
	}
	if body.offered == 0 || body.offered > bytes.MinRead {
		t.Errorf("the stalled body was offered a %d-byte buffer, want at most %d whatever the declared %d",
			body.offered, bytes.MinRead, maxForwardBody)
	}
}

// TestHTTPForwarderBoundsWhateverTheDeclaredLength: the cloud answer's
// Content-Length only sizes the read. An answer of exactly the limit is
// forwarded whole, with the cloud's headers, and one byte more fails the
// forward, whether the length is absent, exact, understated or
// overstated, up to the largest length net/http accepts.
func TestHTTPForwarderBoundsWhateverTheDeclaredLength(t *testing.T) {
	for _, n := range []int{maxForwardBody, maxForwardBody + 1} {
		body := strings.Repeat("x", n)
		for _, length := range []int64{-1, int64(n), 100, int64(n) + 100, 1 << 40, math.MaxInt64} {
			f := &HTTPForwarder{BaseURL: "http://cloud.internal",
				Client: &http.Client{Transport: declaredLength{body: body, length: length}}}
			req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes", nil)
			resp, err := f.Forward(req, &Route{Backend: "/volume/v3/{project_id}/volumes"}, map[string]string{"project_id": "p1"})
			switch {
			case n == maxForwardBody && (err != nil || string(resp.Body) != body || resp.Header.Get("Content-Type") != "application/json"):
				t.Errorf("%d bytes declared as %d: %v; want the answer whole", n, length, err)
			case n > maxForwardBody && (err == nil || !strings.Contains(err.Error(), "body exceeds 1 MiB")):
				t.Errorf("%d bytes declared as %d: %v, want a body-exceeds error", n, length, err)
			}
		}
	}
}
