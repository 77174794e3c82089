package monitor

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// countingProvider serves a fixed env and counts how many paths it was
// asked to resolve, in all and in the pre phase.
type countingProvider struct {
	mu       sync.Mutex
	env      ocl.MapEnv
	paths    int
	calls    int
	prePaths int
}

func (p *countingProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	p.mu.Lock()
	p.calls++
	p.paths += len(paths)
	if ctx.Phase == PhasePre {
		p.prePaths += len(paths)
	}
	p.mu.Unlock()
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

func (p *countingProvider) stats() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls, p.paths
}

// preStats is the number of paths read in the pre phase.
func (p *countingProvider) preStats() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prePaths
}

// okForwarder is a stateless (and therefore race-free) backend stub for
// concurrent tests; fakeForwarder counts calls without locking.
type okForwarder struct{}

func (okForwarder) Forward(*http.Request, *Route, map[string]string) (*BackendResponse, error) {
	return &BackendResponse{StatusCode: 200, Header: http.Header{}, Body: []byte("{}")}, nil
}

func newCachedMonitor(t *testing.T, ttl time.Duration, p StateProvider, f Forwarder) *Monitor {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Contracts:        set,
		Routes:           diffRoutes(),
		Provider:         p,
		Forward:          f,
		Mode:             Enforce,
		PreStateCacheTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func doReq(m *Monitor, method, path, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", token)
	w := httptest.NewRecorder()
	m.ServeHTTP(w, req)
	return w
}

// TestPreStateCacheHit: a second identical GET within the TTL resolves its
// pre-state entirely from the cache. (Post-state reads always hit the
// provider: GET/full-level needs one provider call per request even on a
// cache hit.)
func TestPreStateCacheHit(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	calls1, paths1 := p.stats()
	pre1 := p.preStats()
	if calls1 != 2 {
		t.Fatalf("first request made %d provider calls, want 2 (one pre wave + post)", calls1)
	}

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	calls2, paths2 := p.stats()
	if calls2 != 3 {
		t.Errorf("second request made %d extra calls, want 1 (post only)", calls2-calls1)
	}
	// The post phase reads what it read the first time; the pre phase
	// read nothing.
	if pre2 := p.preStats(); pre2 != pre1 {
		t.Errorf("second request read %d pre-state paths, want 0", pre2-pre1)
	}
	if paths2-paths1 != paths1-pre1 {
		t.Errorf("second request fetched %d paths, want %d", paths2-paths1, paths1-pre1)
	}

	for _, v := range m.Log() {
		if v.Outcome != OK {
			t.Errorf("outcome %s with cache enabled, want ok", v.Outcome)
		}
	}
}

// TestPreStateCacheDistinctTokens: the cache is keyed by token — another
// requester never sees a cached user.id.groups.
func TestPreStateCacheDistinctTokens(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	_, pathsA := p.stats()
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-b")
	_, pathsB := p.stats()
	// The second token must re-fetch the full pre snapshot (plus post).
	if pathsB-pathsA != pathsA {
		t.Errorf("second token fetched %d paths, want %d (no cross-token reuse)", pathsB-pathsA, pathsA)
	}
}

// TestPreStateCacheInvalidatedByWrite: a forwarded write drops the
// project's cached pre-state, so the next read re-fetches.
func TestPreStateCacheInvalidatedByWrite(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "admin")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a") // fills cache
	_, cold := p.stats()
	doReq(m, http.MethodDelete, "/projects/p1/volumes/v1", "tok-a")
	_, pathsBefore := p.stats()
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	_, pathsAfter := p.stats()
	// The read after the write costs what the cold read did: the write
	// invalidated the cached pre-state.
	if pathsAfter-pathsBefore != cold {
		t.Errorf("read after write fetched %d paths, want %d (cache must be invalidated)",
			pathsAfter-pathsBefore, cold)
	}
}

// TestPreStateCacheTTLExpiry: entries die after the TTL even without a
// write through the monitor (covers out-of-band cloud mutations).
func TestPreStateCacheTTLExpiry(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	now := time.Now()
	m.cache.now = func() time.Time { return now }
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	_, paths1 := p.stats()

	now = now.Add(2 * time.Minute)
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	_, paths2 := p.stats()
	if paths2-paths1 != paths1 {
		t.Errorf("expired entries served: fetched %d paths, want %d", paths2-paths1, paths1)
	}
}

// TestPreStateCacheAbsentPaths: paths the provider omits from the env stay
// absent on cache hits (the fake mirrors providers that return partial
// envs; missing keys must not become zero Values).
func TestPreStateCacheAbsentPaths(t *testing.T) {
	partial := env(1, 10, "available", "member")
	delete(partial, "volume.status")
	p := &countingProvider{env: partial}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	w1 := doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	w2 := doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	if w1.Code != w2.Code {
		t.Errorf("cached verdict diverged: first %d, second %d", w1.Code, w2.Code)
	}
	log := m.Log()
	if len(log) != 2 {
		t.Fatalf("got %d verdicts", len(log))
	}
	if _, ok := log[1].PreSnapshot["volume.status"]; ok {
		t.Error("absent path materialised in cached snapshot")
	}
	if log[0].Outcome != log[1].Outcome {
		t.Errorf("outcome changed on cache hit: %s then %s", log[0].Outcome, log[1].Outcome)
	}
}

// TestShardedCountersAggregate drives concurrent requests and checks that
// the sharded outcome/coverage counters and the merged log agree.
func TestShardedCountersAggregate(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, 0, p, okForwarder{})

	const goroutines, per = 16, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok")
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

// TestParamsCacheKeyInjective: distinct capture sets never share a key,
// however their values are spelled — a value may contain any byte a URL
// path segment can carry, separators included — and equal sets always do.
func TestParamsCacheKeyInjective(t *testing.T) {
	sets := []map[string]string{
		nil,
		{"project_id": "p1"},
		{"project_id": "p1;volume_id=v1"},
		{"project_id": "p1", "volume_id": "v1"},
		{"project_id": "p1;", "volume_id": "v1"},
		{"project_id": "p1", "volume_id": ";v1"},
		{"project_id": "p1=volume_id", "volume_id": "v1"},
		{"a": "1", "b": ""},
		{"a": "1;b="},
		{"a": "1", "b": "2"},
		{"a": "12", "b": ""},
		{"a=1;b": "2"},
		{"a": "1:2"},
		{"a": "1", "1:2": ""},
		{"": ""},
	}
	seen := map[string]int{}
	for i, params := range sets {
		key := paramsCacheKey(params)
		if j, dup := seen[key]; dup {
			t.Errorf("capture sets %v and %v share key %q", sets[j], params, key)
		}
		seen[key] = i
		clone := map[string]string{}
		for k, v := range params {
			clone[k] = v
		}
		if again := paramsCacheKey(clone); again != key {
			t.Errorf("equal capture sets %v keyed %q and %q", params, key, again)
		}
	}
}

// projectProvider serves a pre- and post-state per project and counts
// each project's reads per phase.
type projectProvider struct {
	pre, post map[string]ocl.MapEnv
	mu        sync.Mutex
	reads     map[string]int // project + "/" + phase
}

func (p *projectProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	project := ctx.Params["project_id"]
	p.mu.Lock()
	p.reads[project+"/"+ctx.Phase] += len(paths)
	p.mu.Unlock()
	src := p.pre[project]
	if ctx.Phase == PhasePost {
		src = p.post[project]
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := src[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// TestPreStateCacheKeepsLookalikeProjectsApart: a GET of volume v1 in
// project p1 caches p1's pre-state; a POST to the project whose id is the
// literal "p1;volume_id=v1" must read its own pre-state, not be judged on
// p1's — with a shared cache key it was, and the correct creation it
// forwarded was recorded as a postcondition violation.
func TestPreStateCacheKeepsLookalikeProjectsApart(t *testing.T) {
	const other = "p1;volume_id=v1"
	p := &projectProvider{
		pre: map[string]ocl.MapEnv{
			"p1":  env(2, 10, "available", "admin"),
			other: env(0, 10, "available", "admin"),
		},
		post: map[string]ocl.MapEnv{
			"p1":  env(2, 10, "available", "admin"),
			other: env(1, 10, "available", "admin"),
		},
		reads: map[string]int{},
	}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: http.StatusAccepted})
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok")
	if v := lastVerdict(t, m); v.Outcome != OK {
		t.Fatalf("GET outcome %s (%s), want ok", v.Outcome, v.Detail)
	}
	doReq(m, http.MethodPost, "/projects/"+other+"/volumes", "tok")
	if v := lastVerdict(t, m); v.Outcome != OK {
		t.Errorf("POST to %q: outcome %s (%s), want ok", other, v.Outcome, v.Detail)
	}
	if n := p.reads[other+"/"+PhasePre]; n == 0 {
		t.Errorf("POST to %q read none of its own pre-state: served from p1's cache", other)
	}
}
