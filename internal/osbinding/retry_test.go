package osbinding

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
)

// scriptedCloud is a minimal fake cloud: it always authenticates and
// delegates everything else to a per-test handler, counting calls.
type scriptedCloud struct {
	mu      sync.Mutex
	auths   int
	calls   int
	handler func(call int, w http.ResponseWriter, r *http.Request)
}

func (s *scriptedCloud) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if r.URL.Path == "/identity/v3/auth/tokens" {
		s.auths++
		s.mu.Unlock()
		w.Header().Set("X-Subject-Token", "svc-token")
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"token": {}}`))
		return
	}
	s.calls++
	call := s.calls
	s.mu.Unlock()
	s.handler(call, w, r)
}

func (s *scriptedCloud) counts() (auths, calls int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auths, s.calls
}

func scriptedProvider(s *scriptedCloud) *Provider {
	return NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "svc", Password: "pw", ProjectID: "p1",
	}, httpkit.HandlerClient(s))
}

// TestReadRetriesInfrastructureFailures: 5xx answers on an idempotent read
// are retried until the cloud recovers.
func TestReadRetriesInfrastructureFailures(t *testing.T) {
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		if call < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error": {"message": "down"}}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"ok": true}`))
	}}
	p := scriptedProvider(cloud)

	err := p.read(func(token []string) error {
		_, err := p.get(token, "/volume/v3/p1/volumes", "")
		return err
	})
	if err != nil {
		t.Fatalf("read should recover after transient 503s: %v", err)
	}
	if _, calls := cloud.counts(); calls != 3 {
		t.Fatalf("endpoint called %d times, want 3", calls)
	}
}

// TestPerAttemptDeadlineHonored: a hung first attempt is cut off by the
// client's per-attempt deadline and the retry succeeds, well before the
// hang would have resolved on its own.
func TestPerAttemptDeadlineHonored(t *testing.T) {
	const hang = 2 * time.Second
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		if call == 1 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(hang):
				// Deadline never fired: fall through and answer late.
			}
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"ok": true}`))
	}}
	c := osclient.New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(cloud)
	c.Timeout = 50 * time.Millisecond
	p := NewProvider(c, ServiceAccount{User: "svc", Password: "pw", ProjectID: "p1"})

	start := time.Now()
	err := p.read(func(token []string) error {
		_, err := p.get(token, "/volume/v3/p1/volumes", "")
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("retry after a timed-out attempt should succeed: %v", err)
	}
	if elapsed >= hang {
		t.Fatalf("loop waited out the hang (%v); the per-attempt deadline did not fire", elapsed)
	}
	if _, calls := cloud.counts(); calls != 2 {
		t.Fatalf("endpoint called %d times, want 2", calls)
	}
}

// TestOversizedReadFailsLikeAnUndecodableRead: a listing over the 1 MiB
// body bound fails the read as a body that does not decode does, retried
// on every attempt, instead of being cut.
func TestOversizedReadFailsLikeAnUndecodableRead(t *testing.T) {
	big := `{"volumes":[]` + strings.Repeat(" ", httpkit.MaxBodyBytes) + `}`
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, big)
	}}
	p := scriptedProvider(cloud)
	ctx := &monitor.RequestContext{Params: map[string]string{"project_id": "p1"}}
	_, err := p.Snapshot(ctx, []string{"project.volumes"})
	var tooLarge *httpkit.BodyTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("snapshot of an oversized listing: %v, want a body-exceeds error", err)
	}
	if _, calls := cloud.counts(); calls != 3 {
		t.Errorf("oversized read sent %d times, want 3 (retried like an undecodable body)", calls)
	}
}

// TestBackoffGrowsAndCaps: with the jitter at its midpoint the sleeps
// between attempts run 10ms, 40ms, 160ms and then stay at the cap.
func TestBackoffGrowsAndCaps(t *testing.T) {
	mid := func() float64 { return 0.5 }
	want := []time.Duration{
		10 * time.Millisecond,  // after attempt 1
		40 * time.Millisecond,  // after attempt 2
		160 * time.Millisecond, // after attempt 3
		500 * time.Millisecond, // 640ms capped
		500 * time.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := backoff(i+1, mid); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterStaysBounded: jitter spreads a sleep over ±50% of
// itself and never past the cap.
func TestBackoffJitterStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n      int
		lo, hi time.Duration
	}{
		{1, 5 * time.Millisecond, 15 * time.Millisecond},
		{5, 250 * time.Millisecond, 500 * time.Millisecond},
	} {
		first := backoff(tc.n, rng.Float64)
		varied := false
		for i := 0; i < 200; i++ {
			d := backoff(tc.n, rng.Float64)
			if d < tc.lo || d > tc.hi {
				t.Fatalf("jittered backoff(%d) %v outside [%v, %v]", tc.n, d, tc.lo, tc.hi)
			}
			if d != first {
				varied = true
			}
		}
		if !varied {
			t.Fatalf("jitter produced a constant backoff(%d)", tc.n)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	status := func(code int) error { return &osclient.StatusError{Status: code, Message: "x"} }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"401 is an expired token", status(401), true},
		{"503", status(503), true},
		{"wrapped 503", fmt.Errorf("resolve: %w", status(503)), true},
		{"429", status(429), true},
		{"500", status(500), true},
		{"404 is an answer, not a failure", status(404), false},
		{"403 is an answer", status(403), false},
		{"transport error", errors.New("connection reset"), true},
		{"oversized body", &httpkit.BodyTooLargeError{Limit: httpkit.MaxBodyBytes}, true},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
