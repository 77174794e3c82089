package monitor

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// Waves change only which pre-state paths travel together in one Snapshot
// call. These tests hold them to one path per call, which oneByOne gives a
// monitor: same verdicts and evaluation counters, every extra read
// accounted for, and at most one read more per path when the cloud fails.

// oneByOne turns m into the oracle waves are held to: with no pre clause
// naming its paths, every wave carries the demanded path alone.
func oneByOne(m *Monitor) {
	for i := range m.routes {
		plan := *m.routes[i].plan
		plan.Pre = append([]contract.PreClause(nil), plan.Pre...)
		for j := range plan.Pre {
			plan.Pre[j].Paths = nil
		}
		m.routes[i].plan = &plan
	}
}

// fullRecheck turns m into the paper's full re-check: with each post
// clause's effect frame widened to every path its consequent reads, the
// post phase re-reads every path it demands and reuses none.
func fullRecheck(m *Monitor) {
	for i := range m.routes {
		plan := *m.routes[i].plan
		plan.Post = append([]contract.PostClause(nil), plan.Post...)
		for j := range plan.Post {
			plan.Post[j].Touched = plan.Post[j].CurPaths
		}
		m.routes[i].plan = &plan
	}
}

// waveProvider serves a fixed pre-state and a post-state per HTTP method
// and records every call with the paths it read. Once broken, it fails
// the pre-phase reads of the paths in fail. By default a failing call
// still reads every path it carries, as osbinding's fan-out does;
// sequential stops it at its first failed path, as osbinding's one-by-one
// loop does. A failing call sleeps budget, the time a provider's retry
// loop spends before it gives up. hold, when set, runs before each call
// is served, and each call sleeps delay.
type waveProvider struct {
	pre        ocl.MapEnv
	post       map[uml.HTTPMethod]ocl.MapEnv
	fail       map[string]bool
	broken     atomic.Bool
	sequential bool
	budget     time.Duration
	delay      time.Duration
	hold       func()
	mu         sync.Mutex
	calls      []recordedCall
}

// recordedCall is one Snapshot call: its phase, the paths it read, and
// whether it failed.
type recordedCall struct {
	phase  string
	paths  []string
	failed bool
}

// samePost maps every route's method to one post-state.
func samePost(post ocl.MapEnv) map[uml.HTTPMethod]ocl.MapEnv {
	return map[uml.HTTPMethod]ocl.MapEnv{uml.GET: post, uml.PUT: post, uml.POST: post, uml.DELETE: post}
}

func (p *waveProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	read, failed := paths, false
	if ctx.Phase == PhasePre && p.broken.Load() {
		for i, path := range paths {
			if p.fail[path] {
				failed = true
				if p.sequential {
					read = paths[:i+1]
					break
				}
			}
		}
	}
	p.mu.Lock()
	p.calls = append(p.calls, recordedCall{phase: ctx.Phase, paths: append([]string(nil), read...), failed: failed})
	p.mu.Unlock()
	if p.hold != nil {
		p.hold()
	}
	time.Sleep(p.delay)
	if failed {
		time.Sleep(p.budget)
		return nil, errFake
	}
	src := p.pre
	if ctx.Phase == PhasePost {
		src = p.post[ctx.Method]
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := src[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// take returns and clears the recorded calls.
func (p *waveProvider) take() []recordedCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = nil
	return out
}

// reads counts the recorded reads per path of one phase.
func (p *waveProvider) reads(phase string) map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string]int{}
	for _, c := range p.calls {
		if c.phase == phase {
			for _, path := range c.paths {
				out[path]++
			}
		}
	}
	return out
}

// gets is the number of path reads recorded in both phases.
func (p *waveProvider) gets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.calls {
		n += len(c.paths)
	}
	return n
}

// failedCalls is the number of recorded calls that failed. A request's
// calls run one after another, so each costs it one retry budget.
func (p *waveProvider) failedCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.calls {
		if c.failed {
			n++
		}
	}
	return n
}

// waveRun is one request's outcome and the reads behind it.
type waveRun struct {
	v     Verdict
	code  int
	waves uint64
	prov  *waveProvider
}

// runWaves is runEngine with the provider's reads recorded, on a monitor
// that sends waves or, with one set, reads one path per call, and that
// reuses post paths outside the effect frame or, with recheck set,
// re-reads them all.
func runWaves(t *testing.T, set *contract.Set, recheck bool, mode Mode,
	method, path string, pre, post ocl.MapEnv, status int, one bool) waveRun {
	t.Helper()
	prov := &waveProvider{pre: pre, post: samePost(post)}
	m, err := New(Config{
		Contracts: set,
		Routes:    diffRoutes(),
		Provider:  prov,
		Forward:   &fakeForwarder{status: status},
		Mode:      mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if recheck {
		fullRecheck(m)
	}
	if one {
		oneByOne(m)
	}
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return waveRun{v: lastVerdict(t, m), code: rec.Code, waves: m.FetchStats().Waves, prov: prov}
}

// waveCompare asserts the wave arm's contract against the one-path arm:
// every evaluation result and counter identical, and at least as many
// reads (exactly as many when exact is set).
func waveCompare(t *testing.T, name string, seq, wave Verdict, seqCode, waveCode int, exact bool) {
	t.Helper()
	fail := func(field string, s, w interface{}) {
		t.Errorf("%s: %s diverged: one-path %v, waves %v", name, field, s, w)
	}
	if seq.Outcome != wave.Outcome {
		fail("outcome", fmt.Sprintf("%s (%s)", seq.Outcome, seq.Detail),
			fmt.Sprintf("%s (%s)", wave.Outcome, wave.Detail))
		return
	}
	same := []struct {
		field string
		s, w  interface{}
	}{
		{"status", seqCode, waveCode},
		{"Detail", seq.Detail, wave.Detail},
		{"PreOK", seq.PreOK, wave.PreOK},
		{"PostOK", seq.PostOK, wave.PostOK},
		{"Forwarded", seq.Forwarded, wave.Forwarded},
		{"FailingClause", seq.FailingClause, wave.FailingClause},
		{"MatchedSecReqs", seq.MatchedSecReqs, wave.MatchedSecReqs},
		{"MatchedTransitions", seq.MatchedTransitions, wave.MatchedTransitions},
		{"ReusedPaths", seq.ReusedPaths, wave.ReusedPaths},
		{"PreSnapshot", seq.PreSnapshot, wave.PreSnapshot},
		{"PostSnapshot", seq.PostSnapshot, wave.PostSnapshot},
	}
	for _, c := range same {
		if !reflect.DeepEqual(c.s, c.w) {
			fail(c.field, c.s, c.w)
		}
	}
	if wave.FetchedPaths < seq.FetchedPaths {
		fail("FetchedPaths (waves must not read less)", seq.FetchedPaths, wave.FetchedPaths)
	}
	if exact && wave.FetchedPaths != seq.FetchedPaths {
		fail("FetchedPaths", seq.FetchedPaths, wave.FetchedPaths)
	}
}

// waveReads checks where a wave request's extra reads come from: it reads
// every pre-state path the one-path loop read, each exactly once, plus
// paths a short-circuit spared the one-path loop, each once and counted in
// FetchedPaths; its post-phase reads are the one-path loop's.
func waveReads(t *testing.T, name string, seq, wave waveRun) {
	t.Helper()
	seqPre, wavePre := seq.prov.reads(PhasePre), wave.prov.reads(PhasePre)
	extra := 0
	for p, n := range wavePre {
		if n != 1 {
			t.Errorf("%s: the wave request read %s %d times in the pre phase", name, p, n)
		}
		if seqPre[p] == 0 {
			extra++
		}
	}
	for p := range seqPre {
		if wavePre[p] == 0 {
			t.Errorf("%s: the wave request never read %s", name, p)
		}
	}
	if sp, wp := seq.prov.reads(PhasePost), wave.prov.reads(PhasePost); !reflect.DeepEqual(sp, wp) {
		t.Errorf("%s: post-phase reads diverged: one-path %v, waves %v", name, sp, wp)
	}
	if wave.v.FetchedPaths != seq.v.FetchedPaths+extra {
		t.Errorf("%s: waves fetched %d paths, want the one-path loop's %d plus %d read ahead",
			name, wave.v.FetchedPaths, seq.v.FetchedPaths, extra)
	}
}

// waveArms are the monitor configurations the wave differential sweeps:
// the monitor as it ships, and under the full re-check.
var waveArms = []struct {
	name    string
	recheck bool
}{
	{"default", false},
	{"full-recheck", true},
}

// TestDifferentialWavesExampleStates runs the differential suite's example
// corpus with waves against the one-path loop (oneByOne). Where the clauses
// evaluated reach every path they name — the passing and role-blocked
// states, the shapes a correct cloud serves — the read counts agree too.
// Elsewhere a false conjunct or an evaluation error spares the one-path
// loop a clause's later paths, which the wave has already read.
func TestDifferentialWavesExampleStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	good := env(2, 10, "available", "admin")
	partial := env(2, 10, "available", "admin")
	delete(partial, "volume.status")
	illTyped := env(2, 10, "available", "admin")
	illTyped["quota_sets.volume"] = ocl.StringVal("ten")
	states := []struct {
		name      string
		pre, post ocl.MapEnv
		status    int
		exact     bool
	}{
		{"ok-delete", good, env(1, 10, "available", "admin"), 204, true},
		{"post-violation", good, good, 204, true},
		{"pre-fail-role", env(2, 10, "available", "intruder"), env(1, 10, "available", "intruder"), 204, true},
		{"backend-rejects", good, good, 403, true},
		{"backend-errors", good, good, 500, true},
		{"absent-status", partial, env(1, 10, "available", "admin"), 204, true},
		{"pre-fail-in-use", env(2, 10, "in-use", "admin"), env(1, 10, "in-use", "admin"), 204, false},
		{"quota-edge", env(10, 10, "available", "admin"), env(9, 10, "available", "admin"), 204, false},
		{"empty-project", env(0, 10, "available", "admin"), env(0, 10, "available", "admin"), 204, false},
		{"ill-typed-quota", illTyped, illTyped, 204, false},
	}
	var waves uint64
	for _, arm := range waveArms {
		for _, mode := range []Mode{Enforce, Observe} {
			for _, rq := range diffRequests() {
				for _, st := range states {
					name := fmt.Sprintf("%s/%s/%s/%s", arm.name, mode, rq.method, st.name)
					seq := runWaves(t, set, arm.recheck, mode,
						rq.method, rq.path, st.pre, st.post, st.status, true)
					wave := runWaves(t, set, arm.recheck, mode,
						rq.method, rq.path, st.pre, st.post, st.status, false)
					waveCompare(t, name, seq.v, wave.v, seq.code, wave.code, st.exact)
					waveReads(t, name, seq, wave)
					if seq.waves != 0 {
						t.Errorf("%s: the one-path arm sent %d waves", name, seq.waves)
					}
					waves += wave.waves
				}
			}
		}
	}
	if waves == 0 {
		t.Fatal("no request fetched a wave")
	}
}

// TestDifferentialWavesFuzzStates repeats the sweep over the fuzz corpus's
// random states, where absent paths and wrong kinds short-circuit clauses
// more often: reads may exceed the one-path loop's, nothing else may move.
func TestDifferentialWavesFuzzStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reqs := diffRequests()
	statuses := []int{200, 204, 403, 500}
	for i := 0; i < 300; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre, post := randomEnv(rng), randomEnv(rng)
		status := statuses[rng.Intn(len(statuses))]
		mode := Enforce
		if rng.Intn(2) == 0 {
			mode = Observe
		}
		arm := waveArms[i%len(waveArms)]
		name := fmt.Sprintf("fuzz-%d/%s/%s/%s", i, arm.name, mode, rq.method)
		seq := runWaves(t, set, arm.recheck, mode, rq.method, rq.path, pre, post, status, true)
		wave := runWaves(t, set, arm.recheck, mode, rq.method, rq.path, pre, post, status, false)
		waveCompare(t, name, seq.v, wave.v, seq.code, wave.code, false)
		waveReads(t, name, seq, wave)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v status=%d", i, pre, post, status)
		}
	}
}

// TestWaveFailPolicies drives each fail policy with a failing pre-state
// path, in waves and one path per call, on GET, against a provider that
// reads every path of a failing call (osbinding's fan-out) and one that
// stops at the first failed path (its one-by-one loop). The demanded
// cells fail a path the clause reads; the speculative cell fails a path
// only a wave reads, because the clause's first conjunct is false before
// the one-path loop reaches it. Verdicts must agree cell by cell, no path may
// be read more than once beyond the one-path loop's reads of it, and
// FetchedPaths must equal the provider's reads, except that a failed wave
// to the provider that stops early counts every path the call carried.
func TestWaveFailPolicies(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	good := env(2, 10, "available", "admin")
	noProject := env(2, 10, "available", "admin")
	delete(noProject, "project.id")
	cells := []struct {
		name string
		pre  ocl.MapEnv
		fail string
	}{
		{"demanded-first", good, "project.id"},
		{"demanded-later", good, "quota_sets.volume"},
		{"speculative", noProject, "quota_sets.volume"},
	}
	for _, sequential := range []bool{false, true} {
		for _, policy := range []FailPolicy{FailClosed, FailOpen} {
			for _, cell := range cells {
				name := fmt.Sprintf("%s/%s/sequential=%v", policy, cell.name, sequential)
				run := func(one bool) (Verdict, int, *waveProvider) {
					t.Helper()
					p := &waveProvider{pre: cell.pre, post: samePost(cell.pre),
						fail: map[string]bool{cell.fail: true}, sequential: sequential}
					m, err := New(Config{
						Contracts:  set,
						Routes:     diffRoutes(),
						Provider:   p,
						Forward:    &fakeForwarder{status: 204},
						FailPolicy: policy,
					})
					if err != nil {
						t.Fatal(err)
					}
					if one {
						oneByOne(m)
					}
					p.broken.Store(true)
					req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
					req.Header.Set("X-Auth-Token", "tok")
					rec := httptest.NewRecorder()
					m.ServeHTTP(rec, req)
					v, code := lastVerdict(t, m), rec.Code
					switch gets := p.gets(); {
					case sequential && !one:
						if v.FetchedPaths < gets {
							t.Errorf("%s: %d paths fetched but the provider read %d", name, v.FetchedPaths, gets)
						}
					case v.FetchedPaths != gets:
						t.Errorf("%s/one=%v: %d paths fetched but the provider read %d", name, one, v.FetchedPaths, gets)
					}
					return v, code, p
				}
				vs, cs, ps := run(true)
				vw, cw, pw := run(false)
				waveCompare(t, name, vs, vw, cs, cw, false)
				seqReads := ps.reads(PhasePre)
				for path, n := range pw.reads(PhasePre) {
					if n > seqReads[path]+1 {
						t.Errorf("%s: waves read %s %d times, the one-path loop %d", name, path, n, seqReads[path])
					}
				}
				switch {
				case cell.name == "speculative":
					if pw.gets() <= ps.gets() {
						t.Errorf("%s: the wave read %d paths, the one-path loop %d; the failing path was not speculative",
							name, pw.gets(), ps.gets())
					}
				case vs.Outcome == OK:
					t.Errorf("%s: outcome ok despite a failing demanded path", name)
				}
			}
		}
	}
}

// TestWaveFailureCost prices a failing cloud. Each failing Snapshot call
// spends one retry budget, and a request's calls run one after another.
// In an outage every pre-state path fails; in a partial one only a path
// the GET's clause reads after others. Against the one-path loop a wave
// request reads each path at most once more — the failed wave, then the
// path on its own when demanded — and so spends at most one more failing
// call and one more retry budget, under FailClosed and FailOpen alike.
func TestWaveFailureCost(t *testing.T) {
	const budget = 20 * time.Millisecond
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	good := env(2, 10, "available", "admin")
	outage := map[string]bool{}
	for path := range good {
		outage[path] = true
	}
	cells := []struct {
		name string
		fail map[string]bool
	}{
		{"outage", outage},
		{"one-path-down", map[string]bool{"quota_sets.volume": true}},
	}
	for _, policy := range []FailPolicy{FailClosed, FailOpen} {
		for _, cell := range cells {
			name := fmt.Sprintf("%s/%s", policy, cell.name)
			run := func(one bool) (Verdict, *waveProvider) {
				t.Helper()
				p := &waveProvider{pre: good, post: samePost(good), fail: cell.fail, budget: budget}
				p.broken.Store(true)
				m, err := New(Config{
					Contracts:  set,
					Routes:     diffRoutes(),
					Provider:   p,
					Forward:    &fakeForwarder{status: 200},
					FailPolicy: policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				if one {
					oneByOne(m)
				}
				req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
				req.Header.Set("X-Auth-Token", "tok")
				m.ServeHTTP(httptest.NewRecorder(), req)
				return lastVerdict(t, m), p
			}
			vs, ps := run(true)
			vw, pw := run(false)
			waveCompare(t, name, vs, vw, 0, 0, false)
			if ps.failedCalls() == 0 {
				t.Fatalf("%s: no call failed", name)
			}
			seqReads := ps.reads(PhasePre)
			for path, n := range pw.reads(PhasePre) {
				if n > seqReads[path]+1 {
					t.Errorf("%s: waves read %s %d times, the one-path loop %d", name, path, n, seqReads[path])
				}
			}
			if fs, fw := ps.failedCalls(), pw.failedCalls(); fw > fs+1 {
				t.Errorf("%s: waves made %d failing calls, the one-path loop %d", name, fw, fs)
			}
			// One extra budget, plus one of slack for a loaded host.
			if vw.Elapsed > vs.Elapsed+2*budget {
				t.Errorf("%s: waves took %s, the one-path loop %s; more than one extra retry budget (%s)",
					name, vw.Elapsed, vs.Elapsed, budget)
			}
		}
	}
}

// TestWaveShape pins what waves send on the paper's Cinder model: a clean
// GET reads its whole first clause in one pre-phase call and its post
// path alone, five paths in all as one path per call reads, and the call
// shows in FetchStats.Waves and on /metrics.
func TestWaveShape(t *testing.T) {
	state := env(2, 10, "available", "admin")
	p := &waveProvider{pre: state, post: map[uml.HTTPMethod]ocl.MapEnv{uml.GET: state}}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK})
	doGet(t, m)
	v := lastVerdict(t, m)
	if v.Outcome != OK {
		t.Fatalf("outcome %s (%s), want ok", v.Outcome, v.Detail)
	}
	var pre, post []recordedCall
	for _, c := range p.take() {
		if c.phase == PhasePre {
			pre = append(pre, c)
		} else {
			post = append(post, c)
		}
	}
	first := m.routes[0].plan.Pre[0].Paths
	if len(pre) != 1 || !reflect.DeepEqual(pre[0].paths, first) {
		t.Errorf("pre-phase calls %v, want one call for the first clause's paths %v", pre, first)
	}
	if len(post) != 1 || len(post[0].paths) != 1 {
		t.Errorf("post-phase calls %v, want one path per call", post)
	}
	if v.FetchedPaths != 5 {
		t.Errorf("wave GET fetched %d paths, want 5", v.FetchedPaths)
	}

	reg := &obs.Registry{}
	m.RegisterMetrics(reg)
	samples, err := obs.ParseText([]byte(reg.Render()))
	if err != nil {
		t.Fatal(err)
	}
	waves := obs.Find(samples, "cloudmon_snapshot_waves_total")
	if fs := m.FetchStats(); len(waves) != 1 || uint64(waves[0].Value) != fs.Waves || fs.Waves != 1 {
		t.Errorf("waves counter %v, FetchStats.Waves %d; want one wave", waves, fs.Waves)
	}
}

// TestWaveMutualLead has two requests' waves lead each other's paths: each
// opens one flight and follows the other's. Each wave must send its own
// call while it holds its flight, and only then wait, or the two block
// each other for good. The provider answers neither call until both have
// arrived, so a wave that waited before sending would hang the test.
// Run with -race -count=10.
func TestWaveMutualLead(t *testing.T) {
	state := env(2, 10, "available", "admin")
	both := make(chan struct{})
	var arrived atomic.Int32
	p := &waveProvider{pre: state, hold: func() {
		if arrived.Add(1) == 2 {
			close(both)
		}
		<-both
	}}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: http.StatusOK})
	params := map[string]string{"project_id": "p1", "volume_id": "v1"}
	newFetcher := func() *fetcher {
		return &fetcher{m: m, pk: paramsCacheKey(params),
			reqCtx: &RequestContext{Method: uml.GET, Resource: "volume", Params: params, Token: "tok", Phase: PhasePre}}
	}
	a, b := newFetcher(), newFetcher()
	const pa, pb = "project.id", "project.volumes"
	// Interleave the boarding so that each wave leads one path and
	// follows the other's.
	waveA := []wavePath{a.board(pa)}
	waveB := []wavePath{b.board(pb)}
	waveA = append(waveA, a.board(pb))
	waveB = append(waveB, b.board(pa))
	if !waveA[0].lead || !waveB[0].lead || waveA[1].lead || waveB[1].lead {
		t.Fatal("boarding did not produce mutual leads")
	}
	done := make(chan struct{}, 2)
	go func() { a.fly(waveA); done <- struct{}{} }()
	go func() { b.fly(waveB); done <- struct{}{} }()
	for range 2 {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("waves that lead each other's paths deadlocked")
		}
	}
	for name, wave := range map[string][]wavePath{"a": waveA, "b": waveB} {
		for _, w := range wave {
			if w.fl.err != nil || !w.fl.present || !w.fl.val.Equal(state[w.path]) {
				t.Errorf("wave %s: %s = %v (present %v, err %v), want %v",
					name, w.path, w.fl.val, w.fl.present, w.fl.err, state[w.path])
			}
		}
	}
	if got := m.FetchStats().Coalesced; got != 2 {
		t.Errorf("coalesced %d reads, want 2 (each wave follows one path)", got)
	}
	calls := p.take()
	if len(calls) != 2 || len(calls[0].paths) != 1 || len(calls[1].paths) != 1 {
		t.Errorf("provider calls %v, want one one-path call per wave", calls)
	}
	if a.fetched+b.fetched != 2 {
		t.Errorf("fetched %d+%d paths, want one each", a.fetched, b.fetched)
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
// each project's reads per phase. hold, when set, runs before each call
// is served.
type projectProvider struct {
	pre, post map[string]ocl.MapEnv
	hold      func()
	mu        sync.Mutex
	reads     map[string]int // project + "/" + phase
}

func (p *projectProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	project := ctx.Params["project_id"]
	p.mu.Lock()
	p.reads[project+"/"+ctx.Phase] += len(paths)
	p.mu.Unlock()
	if p.hold != nil {
		p.hold()
	}
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

// TestWaveFlightsKeepLookalikeCapturesApart runs a GET of volume v1 in
// project p1 and a POST to the project whose id is the literal
// "p1;volume_id=v1" at the same time. The two capture sets read different
// cloud state, so neither request may join the other's flights: each
// reads its own pre-state and is judged on it. The provider holds the
// GET's first read open until the POST's has started, so a POST that
// followed the GET's flights instead of reading would hang the test. Run
// with -race -count=10.
func TestWaveFlightsKeepLookalikeCapturesApart(t *testing.T) {
	const other = "p1;volume_id=v1"
	var arrived atomic.Int32
	first, both := make(chan struct{}), make(chan struct{})
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
		hold: func() {
			switch arrived.Add(1) {
			case 1:
				close(first)
				<-both
			case 2:
				close(both)
			}
		},
	}
	m := newMonitor(t, Enforce, p, okForwarder{})
	done := make(chan struct{}, 2)
	send := func(method, path string) {
		req := httptest.NewRequest(method, path, nil)
		req.Header.Set("X-Auth-Token", "tok")
		m.ServeHTTP(httptest.NewRecorder(), req)
		done <- struct{}{}
	}
	go send(http.MethodGet, "/projects/p1/volumes/v1")
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("the GET never called the provider")
	}
	go send(http.MethodPost, "/projects/"+other+"/volumes")
	for range 2 {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the POST waited on the GET's flights instead of reading its own state")
		}
	}
	for _, v := range m.Log() {
		if v.Outcome != OK {
			t.Errorf("%s: outcome %s (%s), want ok", v.Trigger, v.Outcome, v.Detail)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, project := range []string{"p1", other} {
		if p.reads[project+"/"+PhasePre] == 0 {
			t.Errorf("no pre-state read for project %q", project)
		}
	}
	if got := m.FetchStats().Coalesced; got != 0 {
		t.Errorf("coalesced %d reads across distinct capture sets, want 0", got)
	}
}

// TestWaveConcurrentRequests runs a GET and a DELETE for the same volume
// with the same token through one monitor. The GET's wave leads its
// clause's four paths and is held in the provider until the DELETE's
// wave, which follows those four and leads volume.status, arrives with
// its own call: both waves are then open at once. Both verdicts must be
// right and the DELETE's four follows counted. Run with -race -count=10.
func TestWaveConcurrentRequests(t *testing.T) {
	state := env(2, 10, "available", "admin")
	var arrived atomic.Int32
	first, both := make(chan struct{}), make(chan struct{})
	p := &waveProvider{
		delay: 500 * time.Microsecond,
		pre:   state,
		post: map[uml.HTTPMethod]ocl.MapEnv{
			uml.GET:    state,
			uml.DELETE: env(1, 10, "available", "admin"),
		},
	}
	p.hold = func() {
		switch arrived.Add(1) {
		case 1:
			close(first)
			<-both
		case 2:
			close(both)
		}
	}
	m := newMonitor(t, Enforce, p, okForwarder{})
	send := func(method string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, "/projects/p1/volumes/v1", nil)
		req.Header.Set("X-Auth-Token", "tok")
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		return rec
	}
	codes := make(chan string, 2)
	go func() { codes <- fmt.Sprintf("GET %d", send(http.MethodGet).Code) }()
	// The GET's wave is open once its call reached the provider.
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("the GET never called the provider")
	}
	go func() { codes <- fmt.Sprintf("DELETE %d", send(http.MethodDelete).Code) }()
	got := map[string]bool{}
	for range 2 {
		select {
		case c := <-codes:
			got[c] = true
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent waves deadlocked")
		}
	}
	if !got["GET 200"] || !got["DELETE 200"] {
		t.Errorf("responses %v, want GET 200 and DELETE 200", got)
	}
	outcomes := map[uml.HTTPMethod]Outcome{}
	for _, v := range m.Log() {
		outcomes[v.Trigger.Method] = v.Outcome
	}
	if outcomes[uml.GET] != OK || outcomes[uml.DELETE] != OK {
		t.Errorf("outcomes %v, want both ok", outcomes)
	}
	// The DELETE's wave leads only volume.status, a one-path call.
	if fs := m.FetchStats(); fs.Coalesced != 4 || fs.Waves != 1 {
		t.Errorf("coalesced %d, waves %d; want the DELETE to follow the GET's 4-path wave", fs.Coalesced, fs.Waves)
	}
}
