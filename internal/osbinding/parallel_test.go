package osbinding

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/ocl"
)

func TestParallelSnapshotMatchesSerial(t *testing.T) {
	f := newFixture(t)
	v, err := f.cloud.Volumes.Create(f.projectID, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := f.provider.Snapshot(f.ctx(v.ID), allPaths)
	if err != nil {
		t.Fatal(err)
	}
	f.provider.Parallel = true
	parallel, err := f.provider.Snapshot(f.ctx(v.ID), allPaths)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("env sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for k, sv := range serial {
		if !parallel[k].Equal(sv) {
			t.Errorf("%s: serial %v, parallel %v", k, sv, parallel[k])
		}
	}
}

func TestParallelSnapshotPropagatesErrors(t *testing.T) {
	// A provider against a dead endpoint fails in both modes.
	dead := NewProviderWithClient("http://127.0.0.1:1", ServiceAccount{User: "x", Password: "y", ProjectID: "p"}, nil)
	dead.Parallel = true
	ctx := (&fixture{projectID: "p"}).ctx("")
	if _, err := dead.Snapshot(ctx, allPaths); err == nil {
		t.Error("dead cloud accepted")
	}
}

// TestParallelSnapshotBoundedWorkers pins the DefaultMaxParallel bound:
// however many paths one call carries, the fan-out never holds more
// simultaneous backend requests than the pool size.
func TestParallelSnapshotBoundedWorkers(t *testing.T) {
	f := newFixture(t)
	vol, err := f.cloud.Volumes.Create(f.projectID, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // hold the slot so overlaps are visible
		f.cloud.ServeHTTP(w, r)
		inFlight.Add(-1)
	}))
	defer gate.Close()

	provider := NewProviderWithClient(gate.URL, ServiceAccount{
		User: "cm-svc", Password: "pw", ProjectID: f.projectID,
	}, nil)
	provider.Parallel = true
	// Warm the service token outside the measurement.
	if _, err := provider.Snapshot(f.ctx(vol.ID), []string{"project.id"}); err != nil {
		t.Fatal(err)
	}
	// Three rounds of every path: more reads than the pool has workers.
	var paths []string
	for range 3 {
		paths = append(paths, allPaths...)
	}
	if len(paths) <= DefaultMaxParallel {
		t.Fatalf("%d paths do not exceed the pool of %d", len(paths), DefaultMaxParallel)
	}
	peak.Store(0)
	if _, err := provider.Snapshot(f.ctx(vol.ID), paths); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > DefaultMaxParallel {
		t.Errorf("observed %d simultaneous backend requests, want <= DefaultMaxParallel (%d)", got, DefaultMaxParallel)
	}
	if got := peak.Load(); got < 2 {
		t.Errorf("observed %d simultaneous backend requests; pool never overlapped", got)
	}
}

// TestParallelSnapshotOverlapsLatency pins the point of the option: with
// an artificial per-request delay, the parallel snapshot completes in
// roughly one delay rather than five.
func TestParallelSnapshotOverlapsLatency(t *testing.T) {
	f := newFixture(t)
	vol, err := f.cloud.Volumes.Create(f.projectID, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 30 * time.Millisecond
	var requests atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		time.Sleep(delay)
		f.cloud.ServeHTTP(w, r)
	}))
	defer slow.Close()

	provider := NewProviderWithClient(slow.URL, ServiceAccount{
		User: "cm-svc", Password: "pw", ProjectID: f.projectID,
	}, nil)
	provider.Parallel = true
	// Warm the service token outside the measurement.
	if _, err := provider.Snapshot(f.ctx(vol.ID), []string{"project.id"}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	env, err := provider.Snapshot(f.ctx(vol.ID), allPaths)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := env["volume.status"]; got.Kind != ocl.KindString {
		t.Fatalf("snapshot incomplete: %v", env)
	}
	// Five reads at 30ms each: serial would need >= 150ms; parallel should
	// land well under 3 delays even on a loaded machine.
	if elapsed >= 3*delay {
		t.Errorf("parallel snapshot took %v (>= %v); latency not overlapped", elapsed, 3*delay)
	}
}

// TestParallelSnapshotReadsEveryPathWhenOneFails: one failed read fails
// the call but cuts no other read short — every path still reaches the
// cloud, whichever goroutine (the caller or a helper) takes it.
func TestParallelSnapshotReadsEveryPathWhenOneFails(t *testing.T) {
	f := newFixture(t)
	vol, err := f.cloud.Volumes.Create(f.projectID, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	read := map[string]bool{}
	cloud := httpkit.HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		read[r.Method+" "+r.URL.Path] = true
		mu.Unlock()
		if strings.HasSuffix(r.URL.Path, "/quota_sets") {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		f.cloud.ServeHTTP(w, r)
	}))
	provider := NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "cm-svc", Password: "pw", ProjectID: f.projectID,
	}, cloud)
	provider.Parallel = true
	if _, err := provider.Snapshot(f.ctx(vol.ID), allPaths); err == nil {
		t.Fatal("a call with a failed read succeeded")
	}
	want := []string{
		"GET /identity/v3/projects/" + f.projectID,
		"GET /volume/v3/" + f.projectID + "/volumes",
		"GET /volume/v3/" + f.projectID + "/quota_sets",
		"GET /volume/v3/" + f.projectID + "/volumes/" + vol.ID,
		"GET /identity/v3/auth/tokens",
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range want {
		if !read[p] {
			t.Errorf("the call never read %s; it read %v", p, read)
		}
	}
}
