package osbinding

import (
	"errors"
	"io"
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

func scriptedProvider(s *scriptedCloud, pol osclient.RetryPolicy) *Provider {
	p := NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "svc", Password: "pw", ProjectID: "p1",
	}, httpkit.HandlerClient(s))
	p.Retry = pol
	return p
}

var fastRetry = osclient.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

// TestWriteNotRetriedAfterTransportFailure is the double-apply regression:
// the cloud applies a write, then the connection dies before the response
// arrives. The caller cannot know the write landed — re-sending it would
// apply it twice — so the retry loop must surface the error after exactly
// one application.
func TestWriteNotRetriedAfterTransportFailure(t *testing.T) {
	applied := 0
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		applied++
		panic(http.ErrAbortHandler) // connection dies after the effect landed
	}}
	p := scriptedProvider(cloud, fastRetry)

	err := p.retryDo(false, func(c *osclient.Client) error {
		_, err := c.Do(http.MethodPost, "/volume/v3/p1/volumes", map[string]any{"volume": map[string]any{}}, nil, nil)
		return err
	})
	if err == nil {
		t.Fatal("a write with an ambiguous outcome must surface its error")
	}
	if applied != 1 {
		t.Fatalf("write applied %d times, want exactly 1 (double-apply regression)", applied)
	}
}

// TestWriteRetriedAfter401 is the counterpart: a 401 is issued by the auth
// middleware before the body is acted on, so re-sending after re-auth is
// provably safe even for a POST.
func TestWriteRetriedAfter401(t *testing.T) {
	applied := 0
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		if call == 1 {
			w.WriteHeader(http.StatusUnauthorized)
			_, _ = w.Write([]byte(`{"error": {"message": "token expired"}}`))
			return
		}
		applied++
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	}}
	p := scriptedProvider(cloud, fastRetry)

	err := p.retryDo(false, func(c *osclient.Client) error {
		_, err := c.Do(http.MethodPost, "/volume/v3/p1/volumes", map[string]any{"volume": map[string]any{}}, nil, nil)
		return err
	})
	if err != nil {
		t.Fatalf("401-then-success should recover: %v", err)
	}
	if applied != 1 {
		t.Fatalf("write applied %d times, want exactly 1", applied)
	}
	auths, calls := cloud.counts()
	if auths != 2 {
		t.Fatalf("authenticated %d times, want 2 (initial + re-auth after 401)", auths)
	}
	if calls != 2 {
		t.Fatalf("endpoint called %d times, want 2", calls)
	}
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
	p := scriptedProvider(cloud, fastRetry)

	err := p.withRetry(func(c *osclient.Client) error {
		_, err := c.Do(http.MethodGet, "/volume/v3/p1/volumes", nil, nil, nil)
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
// per-attempt deadline and the retry succeeds, well before the hang would
// have resolved on its own.
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
	pol := fastRetry
	pol.PerAttemptTimeout = 50 * time.Millisecond
	p := scriptedProvider(cloud, pol)

	start := time.Now()
	err := p.withRetry(func(c *osclient.Client) error {
		_, err := c.Do(http.MethodGet, "/volume/v3/p1/volumes", nil, nil, nil)
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

// TestBreakerShedsAfterThreshold: consecutive infrastructure failures open
// the circuit mid-loop; the next attempt is shed with ErrCircuitOpen
// instead of hammering a dead cloud.
func TestBreakerShedsAfterThreshold(t *testing.T) {
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error": {"message": "down"}}`))
	}}
	pol := fastRetry
	pol.MaxAttempts = 5
	p := scriptedProvider(cloud, pol)
	p.Breaker = osclient.NewBreaker(osclient.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour})

	err := p.withRetry(func(c *osclient.Client) error {
		_, err := c.Do(http.MethodGet, "/volume/v3/p1/volumes", nil, nil, nil)
		return err
	})
	if !errors.Is(err, osclient.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if _, calls := cloud.counts(); calls != 2 {
		t.Fatalf("endpoint called %d times, want 2 (breaker must shed the rest)", calls)
	}
	if p.Breaker.State() != osclient.StateOpen {
		t.Fatalf("breaker state %s, want open", p.Breaker.State())
	}
}

// TestRetryBudgetCapsTheLoop: the wall-clock budget returns the last error
// rather than sleeping past it.
func TestRetryBudgetCapsTheLoop(t *testing.T) {
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error": {"message": "down"}}`))
	}}
	p := scriptedProvider(cloud, osclient.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   200 * time.Millisecond,
		Budget:      50 * time.Millisecond,
	})

	start := time.Now()
	err := p.withRetry(func(c *osclient.Client) error {
		_, err := c.Do(http.MethodGet, "/volume/v3/p1/volumes", nil, nil, nil)
		return err
	})
	if !osclient.IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("err = %v, want the last 503", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("budgeted loop ran %v", elapsed)
	}
	if _, calls := cloud.counts(); calls != 1 {
		t.Fatalf("endpoint called %d times, want 1 (first backoff exceeds the budget)", calls)
	}
}

// TestOversizedReadFailsLikeAnUndecodableRead: a listing over the 1 MiB
// body bound fails the read as a body that does not decode does — retried
// on every attempt and counted by the breaker — instead of being cut.
func TestOversizedReadFailsLikeAnUndecodableRead(t *testing.T) {
	big := `{"volumes":[]` + strings.Repeat(" ", httpkit.MaxBodyBytes) + `}`
	cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, big)
	}}
	p := scriptedProvider(cloud, fastRetry)
	p.Breaker = osclient.NewBreaker(osclient.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour})
	ctx := &monitor.RequestContext{Params: map[string]string{"project_id": "p1"}}
	_, err := p.Snapshot(ctx, []string{"project.volumes"})
	var tooLarge *httpkit.BodyTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("snapshot of an oversized listing: %v, want a body-exceeds error", err)
	}
	if _, calls := cloud.counts(); calls != 3 {
		t.Errorf("oversized read sent %d times, want 3 (retried like an undecodable body)", calls)
	}
	if got := p.Breaker.State(); got != osclient.StateOpen {
		t.Errorf("breaker %s after 3 oversized reads, want open", got)
	}
}
