package osbinding

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/faults"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// Each state read, and the service-account login, is one round trip on
// the HTTP client's transport (httpkit.Send). These tests hold them to
// what a reverse proxy does and to the request http.Client.Do would have
// sent.

// captureTransport keeps the request it is handed and answers 204.
type captureTransport struct{ got *http.Request }

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.got = r
	return &http.Response{StatusCode: http.StatusNoContent, Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// TestSendHandsTransportClientDoRequest: on every base, a cloud request
// reaches the transport as http.Client.Do would have handed it over,
// with the basic authentication Client.Do adds for a base with user info.
func TestSendHandsTransportClientDoRequest(t *testing.T) {
	for i, base := range requestBases {
		method := requestMethods[i%len(requestMethods)]
		target := expandTemplate("/volume/v3/{project_id}/volumes", "p1")
		build := func() *http.Request {
			req, err := httpkit.NewEndpoint(base).Request(context.Background(), method, target, requestBody(uint8(i), "body"))
			if err != nil {
				return nil
			}
			req.Header["X-Auth-Token"] = []string{"tok"}
			return req
		}
		req := build()
		if req == nil {
			continue
		}
		var got, want captureTransport
		if _, _, err := httpkit.Send(&http.Client{Transport: &got}, req, httpkit.MaxBodyBytes); err != nil {
			t.Fatalf("%q: Send: %v", base, err)
		}
		resp, err := (&http.Client{Transport: &want}).Do(build())
		if err != nil {
			t.Fatalf("%q: Client.Do: %v", base, err)
		}
		resp.Body.Close()
		if diff := diffRequests(got.got, want.got); diff != "" {
			t.Errorf("%q: the transport got %s", base, diff)
		}
		if strings.Contains(base, "@") && want.got.Header.Get("Authorization") == "" {
			t.Errorf("%q: Client.Do sent no basic authentication", base)
		}
	}
}

// TestReadRedirectIsFinal: a state read answered 302 is the cloud's final
// answer. The read fails at once with its StatusError, unretried, the
// monitor's verdict under FailClosed is Error, and the Location's server
// sees no request, so neither the service token nor the requester's.
func TestReadRedirectIsFinal(t *testing.T) {
	var mu sync.Mutex
	var leaked []http.Header
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		leaked = append(leaked, r.Header.Clone())
		mu.Unlock()
		_, _ = w.Write([]byte(`{"token":{"roles":["admin"]}}`))
	}))
	defer other.Close()
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/identity/v3/auth/tokens" {
			w.Header().Set("X-Subject-Token", "svc-token")
			w.WriteHeader(http.StatusCreated)
			return
		}
		http.Redirect(w, r, other.URL+r.URL.Path, http.StatusFound)
	}))
	defer cloud.Close()

	p := NewProviderWithClient(cloud.URL, ServiceAccount{User: "svc", Password: "pw", ProjectID: "p1"}, nil)
	ctx := &monitor.RequestContext{Params: map[string]string{"project_id": "p1"}, Token: "requester-token"}
	if _, err := p.Snapshot(ctx, []string{"user.id.groups"}); !osclient.IsStatus(err, http.StatusFound) {
		t.Errorf("a read answered 302: %v, want a 302 StatusError", err)
	}
	if st := p.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("a read answered 302 took %d attempts, %d retries; want 1, 0", st.Attempts, st.Retries)
	}

	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	var verdict monitor.Verdict
	m, err := monitor.New(monitor.Config{
		Contracts:  set,
		Routes:     Routes(set),
		Provider:   p,
		Forward:    &monitor.HTTPForwarder{BaseURL: cloud.URL},
		FailPolicy: monitor.FailClosed,
		OnVerdict:  func(v monitor.Verdict) { verdict = v },
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "requester-token")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if verdict.Outcome != monitor.Error || verdict.Forwarded || rec.Code != http.StatusBadGateway {
		t.Errorf("verdict %s (forwarded %v), status %d; want error, not forwarded, 502", verdict.Outcome, verdict.Forwarded, rec.Code)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, h := range leaked {
		t.Errorf("the Location's server got a request with X-Auth-Token %q, X-Subject-Token %q",
			h.Get("X-Auth-Token"), h.Get("X-Subject-Token"))
	}
}

// TestLoginRedirectIsFinal: the service-account login answered 307 is
// the cloud's final answer too. The read fails with a StatusError naming
// 307 after one attempt, and the Location's server receives no request,
// so neither the login's body, password included, nor any token.
func TestLoginRedirectIsFinal(t *testing.T) {
	var mu sync.Mutex
	var leaked []string
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		leaked = append(leaked, r.Method+" "+r.URL.Path+" "+string(body))
		mu.Unlock()
		w.Header().Set("X-Subject-Token", "forged-token")
		w.WriteHeader(http.StatusCreated)
	}))
	defer other.Close()
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/identity/v3/auth/tokens" {
			http.Redirect(w, r, other.URL+r.URL.Path, http.StatusTemporaryRedirect)
			return
		}
		_, _ = w.Write([]byte(`{"token":{"roles":["admin"]}}`))
	}))
	defer cloud.Close()

	p := NewProviderWithClient(cloud.URL, ServiceAccount{User: "svc", Password: "secret-pw", ProjectID: "p1"}, nil)
	ctx := &monitor.RequestContext{Params: map[string]string{"project_id": "p1"}, Token: "requester-token"}
	_, err := p.Snapshot(ctx, []string{"user.id.groups"})
	if !osclient.IsStatus(err, http.StatusTemporaryRedirect) || !strings.Contains(err.Error(), "307") {
		t.Errorf("a login answered 307: %v, want a StatusError naming 307", err)
	}
	if st := p.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("a login answered 307 took %d attempts, %d retries; want 1, 0", st.Attempts, st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, req := range leaked {
		t.Errorf("the Location's server got %s", req)
	}
}

// TestReadAttemptsEndAtClientTimeout: with no per-attempt Timeout on the
// osclient.Client, the HTTP client's Timeout still ends each attempt at a
// hung cloud: the read takes the schedule's three attempts and fails, and
// the monitor answers Error.
func TestReadAttemptsEndAtClientTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	f := newFixture(t)
	inj := faults.NewInjector(&faults.Profile{Rules: []faults.Rule{
		{Kind: faults.KindTimeout, Method: http.MethodGet, Path: "/identity/v3/auth/tokens", Every: 1},
	}})
	client := &http.Client{Timeout: timeout, Transport: inj.RoundTripper(httpkit.HandlerRoundTripper(f.cloud))}
	p := NewProviderWithClient("http://cloud.internal", f.provider.account, client)

	start := time.Now()
	_, err := p.Snapshot(f.ctx(""), []string{"user.id.groups"})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("a hung read: %v, want a deadline error", err)
	}
	if n := inj.Counts()[string(faults.KindTimeout)]; n != readAttempts {
		t.Errorf("the timeout rule fired %d times, want %d", n, readAttempts)
	}
	if min := readAttempts * timeout; elapsed < min || elapsed > min+2*time.Second {
		t.Errorf("the read took %v, want %d attempts of %v plus backoff", elapsed, readAttempts, timeout)
	}

	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	var verdict monitor.Verdict
	m, err := monitor.New(monitor.Config{
		Contracts: set,
		Routes:    Routes(set),
		Provider:  p,
		Forward:   &monitor.HTTPForwarder{BaseURL: "http://cloud.internal", Client: client},
		OnVerdict: func(v monitor.Verdict) { verdict = v },
	})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := f.cloud.Volumes.Create(f.projectID, "v", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/projects/"+f.projectID+"/volumes/"+vol.ID, nil)
	req.Header.Set("X-Auth-Token", f.adminTok)
	m.ServeHTTP(httptest.NewRecorder(), req)
	if verdict.Outcome != monitor.Error || verdict.Forwarded {
		t.Errorf("verdict %s (forwarded %v, %s); want error, not forwarded", verdict.Outcome, verdict.Forwarded, verdict.Detail)
	}
}

// TestReadBodyLimit: a read's reply of exactly httpkit.MaxBodyBytes is
// read whole, and one byte more fails as too large rather than being cut.
// The failure is a read failure, not a StatusError, so the read loop
// retries it as it retries an undecodable body.
func TestReadBodyLimit(t *testing.T) {
	var body string
	p := NewProviderWithClient("http://cloud.internal", ServiceAccount{}, httpkit.HandlerClient(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte(body)) })))

	body = listingOfSize(httpkit.MaxBodyBytes)
	if raw, err := p.get(nil, "/volume/v3/p1/volumes", ""); err != nil || len(raw) != httpkit.MaxBodyBytes {
		t.Fatalf("a read of exactly 1 MiB: %d bytes, %v", len(raw), err)
	}
	body = listingOfSize(httpkit.MaxBodyBytes + 1)
	_, err := p.get(nil, "/volume/v3/p1/volumes", "")
	var tooLarge *httpkit.BodyTooLargeError
	if !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), "body exceeds 1 MiB") {
		t.Errorf("a read of 1 MiB + 1 byte: %v, want a body-exceeds-1-MiB error", err)
	}
	if se := (*osclient.StatusError)(nil); errors.As(err, &se) {
		t.Errorf("%v is a StatusError, not a failed read", err)
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
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(d.body)),
		ContentLength: d.length,
		Request:       r,
	}, nil
}

// TestReadBodyLimitWhateverTheDeclaredLength: the reply's Content-Length
// only sizes the read. A body of exactly the bound is read whole and one
// byte more fails as too large, whether the length is absent, exact,
// understated or overstated, up to the largest length net/http accepts.
func TestReadBodyLimitWhateverTheDeclaredLength(t *testing.T) {
	for _, n := range []int{httpkit.MaxBodyBytes, httpkit.MaxBodyBytes + 1} {
		body := listingOfSize(n)
		for _, length := range []int64{-1, int64(n), 100, int64(n) + 100, 1 << 40, math.MaxInt64} {
			p := NewProviderWithClient("http://cloud.internal", ServiceAccount{},
				&http.Client{Transport: declaredLength{body: body, length: length}})
			raw, err := p.get(nil, "/volume/v3/p1/volumes", "")
			var tooLarge *httpkit.BodyTooLargeError
			switch {
			case n == httpkit.MaxBodyBytes && (err != nil || string(raw) != body):
				t.Errorf("%d bytes declared as %d: %d bytes, %v; want the body whole", n, length, len(raw), err)
			case n > httpkit.MaxBodyBytes && !errors.As(err, &tooLarge):
				t.Errorf("%d bytes declared as %d: %v, want a body-exceeds error", n, length, err)
			}
		}
	}
}

// listingOfSize is a volume listing padded with white space to n bytes.
func listingOfSize(n int) string {
	head, tail := `{"volumes":[{"id":"v1"}]`, `}`
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}
