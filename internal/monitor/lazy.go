package monitor

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// EvalMode selects the snapshot/evaluation engine.
type EvalMode int

// Evaluation modes.
const (
	// EvalLazy evaluates the contract's compiled plan
	// clause-by-clause, fetching each state path the first time a formula
	// demands it. The pre-check fetches only what deciding (and
	// attributing) the disjuncts needs; the post-check re-fetches only
	// paths inside the active transitions' effect frame and reuses the
	// pre-state snapshot for the rest.
	EvalLazy EvalMode = iota + 1
	// EvalEager snapshots the contract's full StatePaths union before each
	// evaluation — the paper's original workflow. Kept for differential
	// testing and benchmarking against the plan engine.
	EvalEager
	// EvalCompiled (the default) runs the same demand-driven workflow as
	// EvalLazy — same fetch order, facts pruning, FailPolicy semantics and
	// demand accounting — but evaluates each clause through its compiled
	// closure-chain program (contract/compile.go) over a pooled slot
	// frame instead of re-walking the OCL tree. Only the per-node
	// evaluation changes; the differential suite proves the verdicts
	// field-for-field identical.
	EvalCompiled
)

// String returns the mode name.
func (e EvalMode) String() string {
	switch e {
	case EvalLazy:
		return "lazy"
	case EvalEager:
		return "eager"
	case EvalCompiled:
		return "compiled"
	}
	return fmt.Sprintf("EvalMode(%d)", int(e))
}

// ParseEvalMode parses a -eval flag value.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "compiled":
		return EvalCompiled, nil
	case "lazy":
		return EvalLazy, nil
	case "eager":
		return EvalEager, nil
	}
	return 0, fmt.Errorf("monitor: unknown eval mode %q (compiled|lazy|eager)", s)
}

// unfetchedError is the demand signal of lazy evaluation: a formula reached
// a navigation path its environment has not fetched yet. The evaluator
// aborts on any environment error, so the driver fetches the path and
// re-evaluates; fetched values are stable, so each retry advances past the
// previous miss.
type unfetchedError struct {
	env  *lazyEnv
	path string
}

func (e *unfetchedError) Error() string {
	return "monitor: state path " + e.path + " not fetched"
}

// fetchError wraps a cloud fetch failure so the check loop can tell
// snapshot failures (fail-policy territory) from formula evaluation errors.
type fetchError struct{ err error }

func (e *fetchError) Error() string { return e.err.Error() }
func (e *fetchError) Unwrap() error { return e.err }

// lazyEnv is an ocl.Environment populated on demand. A fetched-but-absent
// path resolves to Undefined exactly like ocl.MapEnv; an unfetched path
// resolves to an unfetchedError naming itself.
type lazyEnv struct {
	vals ocl.MapEnv
	have map[string]bool
	// demanded records the distinct paths the current clause has resolved
	// (see beginClause/takeDemands); nil until accounting starts.
	demanded map[string]bool
	// slotSet, when non-nil, mirrors every set into the compiled engine's
	// frame bank, so the env (the verdict's snapshot of record) and the
	// slot model can never disagree about what has been fetched.
	slotSet func(path string, v ocl.Value, present bool)
}

func newLazyEnv() *lazyEnv {
	return &lazyEnv{vals: make(ocl.MapEnv), have: make(map[string]bool)}
}

// Resolve implements ocl.Environment.
func (e *lazyEnv) Resolve(path []string) (ocl.Value, error) {
	key := strings.Join(path, ".")
	if e.have[key] {
		if e.demanded != nil {
			e.demanded[key] = true
		}
		if v, ok := e.vals[key]; ok {
			return v, nil
		}
		return ocl.Undefined(), nil
	}
	return ocl.Value{}, &unfetchedError{env: e, path: key}
}

// beginClause opens a demand-accounting window: takeDemands then reports
// the distinct paths the evaluator resolved since. The per-clause counts
// feed Verdict.DemandedPaths — the work measure fact pruning reduces even
// when every path was already fetched.
func (e *lazyEnv) beginClause() {
	if e.demanded == nil {
		e.demanded = make(map[string]bool, 8)
		return
	}
	clear(e.demanded)
}

// takeDemands closes the window and returns its distinct demand count.
func (e *lazyEnv) takeDemands() int {
	n := len(e.demanded)
	clear(e.demanded)
	return n
}

// set records a fetched value (present=false marks the path as fetched but
// absent, resolving to Undefined from now on).
func (e *lazyEnv) set(path string, v ocl.Value, present bool) {
	e.have[path] = true
	if present {
		e.vals[path] = v
	}
	if e.slotSet != nil {
		e.slotSet(path, v, present)
	}
}

// fetched reports whether the path has been resolved already.
func (e *lazyEnv) fetched(path string) bool { return e.have[path] }

// value returns the stored value for a fetched path (ok=false: absent).
func (e *lazyEnv) value(path string) (ocl.Value, bool) {
	v, ok := e.vals[path]
	return v, ok
}

// flightGroup coalesces identical concurrent cloud GETs: the first caller
// for a key becomes the flight leader and performs the fetch (capturing the
// cache generation before it starts, so it alone may store the result);
// callers arriving while the flight is open wait for the leader's result
// and never touch the cache. Flight keys are the pre-state cache keys —
// (path, token, params) — so coalescing and caching agree on identity.
// Post-state fetches never join a flight: a request must observe its own
// forwarded effect, not a read that started before it.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done    chan struct{}
	val     ocl.Value
	present bool
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns key's open flight, opening it when there is none; lead
// reports that the caller opened it and must complete it with land.
func (g *flightGroup) join(key string) (fl *flight, lead bool) {
	g.mu.Lock()
	if fl, ok := g.m[key]; ok {
		g.mu.Unlock()
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	g.m[key] = fl
	g.mu.Unlock()
	return fl, true
}

// land completes a flight the caller leads: its result is final and every
// waiter wakes to it.
func (g *flightGroup) land(key string, fl *flight) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}

// errUnresolved is the result of every path a failed Snapshot call carried
// when it carried several: the call's error belongs to no path in
// particular, so whoever needs one of them reads it on its own.
var errUnresolved = errors.New("monitor: a failed multi-path read left this path unresolved")

// lazyFetcher performs the per-path cloud reads of one lazy check,
// accounting fetch counts and time per phase.
type lazyFetcher struct {
	m       *Monitor
	reqCtx  *RequestContext
	project string
	pk      string

	// clause holds the paths of the pre clause under evaluation (nil for
	// witness and top-up reads): a demand for one of them fetches the
	// clause's other unfetched paths in the same Snapshot call.
	clause []string
	// ahead holds the results of wave reads no demand has consumed yet. A
	// path enters the evaluation's env only when demanded, so evaluation,
	// the top-up and post reuse see exactly the paths a one-path-per-call
	// loop would have read.
	ahead map[string]*flight

	degraded bool
	fetched  int
	preDur   time.Duration
	postDur  time.Duration
}

// fetchPre resolves one pre-state path: a result a wave already brought,
// else the read cache, else a coalesced provider read — a wave with the
// current clause's other unfetched paths, or the path alone outside a
// clause and after a failed multi-path read — then, under the Degrade
// policy, a stale cache entry within the degrade window. The flight leader
// captures the project generation before fetching and is the only writer
// to the cache, so a waiter can never store a value observed before a
// write that invalidated it.
func (f *lazyFetcher) fetchPre(env *lazyEnv, path string) error {
	m := f.m
	clause := f.clause
	fl := f.ahead[path]
	if fl != nil {
		delete(f.ahead, path)
		clause = nil
	} else if m.cache != nil {
		if v, present, ok := m.cache.get(path, f.reqCtx.Token, f.pk, f.project); ok {
			env.set(path, v, present)
			return nil
		}
	}
	for fl == nil || fl.err == errUnresolved {
		fl = f.fetchWave(env, path, clause)
		clause = nil
	}
	if fl.err == nil {
		env.set(path, fl.val, fl.present)
		return nil
	}
	if m.failPolicy == Degrade && m.cache != nil {
		if v, present, ok := m.cache.getStale(path, f.reqCtx.Token, f.pk, f.project, m.degradeTTL); ok {
			env.set(path, v, present)
			f.degraded = true
			return nil
		}
	}
	return fl.err
}

// wavePath is one path of a wave: a flight the wave leads, or one another
// request leads that the wave waits on.
type wavePath struct {
	path, key string
	fl        *flight
	lead      bool
}

// fetchWave reads a demanded pre-state path, which missed the cache,
// together with clause's other unfetched paths, and returns the demanded
// path's flight. Cache hits stay out of the call. The wave opens a flight
// for every path no other request is reading, sends one Snapshot for all
// of them and completes those flights before it waits on anyone else's,
// so two waves that lead each other's paths cannot deadlock. Only the
// demanded path's result is returned and can fail the clause; the others
// wait in ahead for their own demand.
func (f *lazyFetcher) fetchWave(env *lazyEnv, demanded string, clause []string) *flight {
	m := f.m
	t0 := time.Now()
	wave := []wavePath{f.board(demanded)}
	for _, p := range clause {
		if p == demanded || env.fetched(p) {
			continue
		}
		if _, ok := f.ahead[p]; ok {
			continue
		}
		if m.cache != nil {
			if v, present, ok := m.cache.get(p, f.reqCtx.Token, f.pk, f.project); ok {
				f.stash(p, &flight{val: v, present: present})
				continue
			}
		}
		wave = append(wave, f.board(p))
	}
	f.fly(wave)
	f.preDur += time.Since(t0)
	for _, w := range wave[1:] {
		f.stash(w.path, w.fl)
	}
	return wave[0].fl
}

// board joins path's flight for a wave.
func (f *lazyFetcher) board(path string) wavePath {
	key := cacheKey(path, f.reqCtx.Token, f.pk)
	fl, lead := f.m.flights.join(key)
	return wavePath{path: path, key: key, fl: fl, lead: lead}
}

// stash keeps a wave result for a path's later demand.
func (f *lazyFetcher) stash(path string, fl *flight) {
	if f.ahead == nil {
		f.ahead = make(map[string]*flight, 4)
	}
	f.ahead[path] = fl
}

// fly reads every path the wave leads in one Snapshot call and completes
// their flights, and only then waits for the flights it follows: a wave
// never waits while it holds a flight open. A follow counts as coalesced
// when it brings a result.
func (f *lazyFetcher) fly(wave []wavePath) {
	f.lead(wave)
	for _, w := range wave {
		if !w.lead {
			<-w.fl.done
			if w.fl.err != errUnresolved {
				f.m.coalesced.Inc()
			}
		}
	}
}

// lead sends one Snapshot call for the paths the wave leads and completes
// their flights. When a call carrying several paths fails, each of its
// flights lands errUnresolved: nothing re-reads them now, and a request
// that demands one later (this one or a waiter) reads it alone, so every
// fail-policy decision rests on that path's own result, as in a
// one-path-per-call loop, and a failing cloud sees at most one read more
// per path than that loop sends it. FetchedPaths counts every path a call
// carried: exact for a provider that reads them all, as osbinding's fan-out
// does; for one that stops at its first failure it overstates a failed
// call.
func (f *lazyFetcher) lead(wave []wavePath) {
	m := f.m
	paths := make([]string, 0, len(wave))
	for _, w := range wave {
		if w.lead {
			paths = append(paths, w.path)
		}
	}
	if len(paths) == 0 {
		return
	}
	var gen uint64
	if m.cache != nil {
		gen = m.cache.projectGen(f.project)
	}
	f.fetched += len(paths)
	if len(paths) > 1 {
		m.waves.Inc()
	}
	snap, err := m.provider.Snapshot(f.reqCtx, paths)
	for _, w := range wave {
		if !w.lead {
			continue
		}
		fl := w.fl
		switch {
		case err == nil:
			fl.val, fl.present = snap[w.path]
			if m.cache != nil {
				m.cache.put(w.path, f.reqCtx.Token, f.pk, f.project, fl.val, fl.present, gen)
			}
		case len(paths) == 1:
			fl.err = err
		default:
			fl.err = errUnresolved
		}
		m.flights.land(w.key, fl)
	}
}

// fetchPost resolves one post-state path straight from the cloud — no
// cache, no coalescing: the post-condition verifies this request's own
// effect, so joining a read that started before the forward would compare
// against stale state.
func (f *lazyFetcher) fetchPost(env *lazyEnv, path string) error {
	t0 := time.Now()
	f.fetched++
	snap, err := f.m.provider.Snapshot(f.reqCtx, []string{path})
	f.postDur += time.Since(t0)
	if err != nil {
		return err
	}
	v, ok := snap[path]
	env.set(path, v, ok)
	return nil
}

// evalDemand evaluates expr, fetching navigation paths the moment the
// evaluator demands one. The loop terminates because every successful fetch
// marks its path fetched and Resolve only errors on unfetched paths.
// Fetch failures come back wrapped in fetchError; all other errors are
// genuine evaluation errors.
func evalDemand(expr ocl.Expr, ctx ocl.Context, fetch func(*lazyEnv, string) error) (ocl.Value, error) {
	for {
		val, err := ocl.Eval(expr, ctx)
		if err == nil {
			return val, nil
		}
		var uf *unfetchedError
		if !errors.As(err, &uf) {
			return ocl.Value{}, err
		}
		if uf.env.fetched(uf.path) {
			// A fetch that does not mark its path would loop forever; fail
			// loudly instead.
			return ocl.Value{}, fmt.Errorf("monitor: demand loop stuck on path %s", uf.path)
		}
		if ferr := fetch(uf.env, uf.path); ferr != nil {
			return ocl.Value{}, &fetchError{err: ferr}
		}
	}
}

// evalProgram is evalDemand's twin for the compiled engine: it runs the
// clause's closure-chain program, fetching a state path the moment a slot
// demand surfaces. Termination mirrors evalDemand — every successful
// fetch fills its slot (via the env's slotSet mirror), and a filled slot
// cannot demand again.
func evalProgram(prog *contract.Program, fr *contract.Frame, fetch func(*contract.Demand) error) (ocl.Value, error) {
	for {
		val, err := prog.Run(fr)
		if err == nil {
			return val, nil
		}
		var d *contract.Demand
		if !errors.As(err, &d) {
			return ocl.Value{}, err
		}
		if fr.Filled(d) {
			// A fetch that does not fill its slot would loop forever; fail
			// loudly instead.
			return ocl.Value{}, fmt.Errorf("monitor: demand loop stuck on path %s", d.Path)
		}
		if ferr := fetch(d); ferr != nil {
			return ocl.Value{}, &fetchError{err: ferr}
		}
	}
}

// boolValue reports (isBool, value) for a tri-state result.
func boolValue(v ocl.Value) (bool, bool) {
	return v.Kind == ocl.KindBool, v.Kind == ocl.KindBool && v.Bool
}

// Pruning kinds of the cloudmon_facts_pruned_total metric.
const (
	factsPrunedPreClause  = "pre-clause"  // disjunct assigned a static value
	factsPrunedPreSibling = "pre-sibling" // disjunct decided by a witness element
	factsPrunedPostClause = "post-clause" // implication statically vacuous
)

// witnessSkip tries to decide disjunct i through an armed exclusion: a
// sibling already observed definitely true whose elements refute one of
// i's. Only a definite-false observation of the witness element licenses
// the skip — the prover is idealized (facts.go), so the observation is
// the soundness guard. Every other outcome (true, undefined, non-boolean,
// evaluation or fetch error) falls back to full evaluation, which
// reproduces the no-facts engine exactly: the witness's fetched values
// are shared state, and fetchPre retries failed paths on re-demand.
func (m *Monitor) witnessSkip(facts *contract.Facts, comp *contract.Compiled, fr *contract.Frame, i int, anteVals []ocl.Value, pre *lazyEnv, preCtx ocl.Context, f *lazyFetcher, v *Verdict) (ocl.Value, bool) {
	for j, ex := range facts.Exclusions[i] {
		if isBool, b := boolValue(anteVals[ex.Provider]); !isBool || !b {
			continue
		}
		var wval ocl.Value
		var err error
		if fr != nil {
			fr.BeginClause()
			wval, err = evalProgram(comp.WitnessProgram(i, j), fr, func(d *contract.Demand) error {
				return f.fetchPre(pre, d.Path)
			})
			v.DemandedPaths += fr.TakeDemands()
		} else {
			pre.beginClause()
			wval, err = evalDemand(ex.Witness, preCtx, f.fetchPre)
			v.DemandedPaths += pre.takeDemands()
		}
		if err == nil {
			if isBool, b := boolValue(wval); isBool && !b {
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPreSibling, 1)
				return ocl.BoolVal(false), true
			}
		}
		// Per request only the first armed exclusion is tried: its witness
		// observation already paid the fetches, and after a non-false
		// observation the full evaluation reuses them anyway.
		return ocl.Value{}, false
	}
	return ocl.Value{}, false
}

// checkLazy is the plan-driven monitoring workflow: semantically equivalent
// to checkEager (same verdicts, failing clauses and SecReq attributions —
// see differential_test.go) while fetching only the state paths the
// verdict actually needs.
//
// Pre-check: every disjunct is evaluated (coverage attribution needs each
// case's truth, Section IV.C) in plan order, but demand-driven — a failed
// source invariant never fetches the guard's paths, and disjuncts sharing
// paths pay once. Post-check: implications whose antecedent was false in
// the pre-state are skipped outright; active consequents re-fetch only
// paths inside the transitions' effect frame and reuse the pre-state
// snapshot for untouched paths (disable with Config.NoPostReuse).
//
// The third return value is non-nil only under PostAsync: the pre phase
// and the forward are complete, the verdict is deferred, and the capture
// carries everything postVerify needs to finish it off the response path.
func (m *Monitor) checkLazy(r *http.Request, cr *compiledRoute, params map[string]string, trace *obs.Trace) (Verdict, *BackendResponse, *postCapture) {
	start := time.Now()
	c := cr.contract
	plan := cr.plan
	reqCtx := &RequestContext{
		Method:   c.Trigger.Method,
		Resource: c.Trigger.Resource,
		Params:   params,
		Token:    r.Header.Get("X-Auth-Token"),
		Phase:    PhasePre,
	}
	v := Verdict{Trigger: c.Trigger, SecReqs: c.SecReqs, ContractDigest: cr.digest}
	f := &lazyFetcher{
		m:       m,
		reqCtx:  reqCtx,
		project: params["project_id"],
		pk:      paramsCacheKey(params),
	}
	var preEvalDur, postEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(start)
		v.FetchedPaths = f.fetched
		switch outcome {
		case Blocked, Rejected, ViolationForbiddenAccepted, ViolationAllowedRejected:
			v.FailingClause = c.Pre.String()
		case ViolationPostcondition:
			v.FailingClause = c.Post.String()
		}
		// Fetch time accumulates into the snapshot stages; the evaluation
		// stages get the remainder of each interleaved phase.
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		trace[obs.StagePostSnapshot] = f.postDur
		trace[obs.StagePostEval] = postEvalDur
		return v
	}
	// snapshotFailed runs the pre-forward fail-policy branches shared by
	// the pre-check and the pre-state top-up (the Degrade rescue already
	// ran per path inside fetchPre).
	snapshotFailed := func(err error) (Verdict, *BackendResponse, *postCapture) {
		if m.failPolicy == FailOpen {
			m.fenceWrites(r.Method)
			fwdStart := time.Now()
			resp, ferr := m.forward.Forward(r, &cr.route, params)
			trace[obs.StageForward] = time.Since(fwdStart)
			if ferr != nil {
				return finish(Error, fmt.Sprintf(
					"pre-state snapshot: %v; forward to cloud: %v", err, ferr)), nil, nil
			}
			v.Forwarded = true
			v.BackendStatus = resp.StatusCode
			m.forwardedWrite(r.Method, params["project_id"])
			return finish(Unverified, fmt.Sprintf("pre-state snapshot failed (fail-open): %v", err)), resp, nil
		}
		return finish(Error, fmt.Sprintf("pre-state snapshot: %v", err)), nil, nil
	}

	// Pre phase: evaluate every disjunct, cheapest-planned first. The
	// tri-state value is kept per case: the post-check derives each
	// implication's antecedent from it without re-reading the pre-state.
	// With facts on, a statically decided disjunct is assigned its value
	// without evaluation, and a disjunct with an armed exclusion (a
	// sibling already observed definitely true) is decided by its witness
	// element alone when that witness is observed definitely false — every
	// other observation falls back to full evaluation, reproducing the
	// no-facts engine exactly.
	preStart := time.Now()
	facts := plan.Facts
	useFacts := !m.noFacts && facts != nil
	anteVals := make([]ocl.Value, len(c.Cases))
	pre := newLazyEnv()
	preCtx := ocl.Context{Cur: pre}
	// The compiled engine swaps only the per-clause evaluation: a pooled
	// slot frame mirrors the env (slotSet keeps them in lockstep), the
	// clause programs run over it, and the demand loop, fetch order and
	// accounting stay exactly the lazy engine's.
	comp := plan.Compiled
	useCompiled := m.eval == EvalCompiled && comp != nil
	var fr *contract.Frame
	var demandPre func(*contract.Demand) error
	if useCompiled {
		fr = comp.NewFrame()
		defer comp.Release(fr)
		pre.slotSet = fr.SetCur
		demandPre = func(d *contract.Demand) error { return f.fetchPre(pre, d.Path) }
	} else {
		comp = nil
	}
	// debugRecheck re-derives a fact-decided value the slow way
	// (FactsDebug): an unsound fact surfaces as a mismatch count here and
	// as a verdict divergence in the differential suites.
	debugRecheck := func(i int, got ocl.Value) {
		if !m.factsDebug {
			return
		}
		pre.beginClause()
		full, err := evalDemand(c.Cases[i].Pre, preCtx, f.fetchPre)
		pre.takeDemands()
		if err != nil || !full.Equal(got) {
			m.factsMismatch.Inc()
		}
	}
	for _, cl := range plan.Pre {
		i := cl.Index
		if useFacts {
			if s := facts.Pre[i].Static; s != nil {
				anteVals[i] = *s
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPreClause, 1)
				debugRecheck(i, *s)
				continue
			}
			if val, ok := m.witnessSkip(facts, comp, fr, i, anteVals, pre, preCtx, f, &v); ok {
				anteVals[i] = val
				debugRecheck(i, val)
				continue
			}
		}
		var val ocl.Value
		var err error
		// A demand fetches the clause's other unfetched paths with it.
		// Witness and top-up reads stay one path per call.
		f.clause = cl.Paths
		if useCompiled {
			// The program was compiled from the folded form, which is
			// value-, error- and demand-equivalent to the original
			// (facts.go) — one program serves facts-on and facts-off.
			fr.BeginClause()
			val, err = evalProgram(comp.PreProgram(i), fr, demandPre)
			v.DemandedPaths += fr.TakeDemands()
		} else {
			expr := c.Cases[i].Pre
			if useFacts {
				// The folded form is value- and error-equivalent (facts.go).
				expr = facts.Pre[i].Folded
			}
			pre.beginClause()
			val, err = evalDemand(expr, preCtx, f.fetchPre)
			v.DemandedPaths += pre.takeDemands()
		}
		f.clause = nil
		if err != nil {
			preEvalDur = time.Since(preStart) - f.preDur
			var fe *fetchError
			if errors.As(err, &fe) {
				return snapshotFailed(fe.err)
			}
			return finish(Error, fmt.Sprintf("pre-condition evaluation: %v", err)), nil, nil
		}
		anteVals[i] = val
	}
	preEvalDur = time.Since(preStart) - f.preDur
	v.DegradedPre = f.degraded
	v.PreSnapshot = pre.vals

	// Coverage attribution in model order, exactly as the eager evalPre.
	preOK := false
	var matched, matchedTrans []string
	seen := make(map[string]bool)
	for i := range c.Cases {
		if isBool, b := boolValue(anteVals[i]); !isBool || !b {
			continue
		}
		preOK = true
		cs := &c.Cases[i]
		matchedTrans = append(matchedTrans,
			cs.Transition.From+"->"+cs.Transition.To+" on "+cs.Transition.Trigger.String())
		for _, s := range cs.Transition.SecReqs {
			if !seen[s] {
				seen[s] = true
				matched = append(matched, s)
			}
		}
	}
	sort.Strings(matched)
	v.PreOK = preOK
	v.MatchedSecReqs = matched
	v.MatchedTransitions = matchedTrans

	if !preOK && m.mode == Enforce {
		return finish(Blocked, "pre-condition failed; request not forwarded"), nil, nil
	}

	// Pre-state top-up: pre-context paths of active consequents are
	// unobservable once the request is forwarded, so capture any the
	// disjunct evaluation did not already touch. An implication whose
	// antecedent is definitely false is skipped entirely — its consequent
	// is never evaluated, so its old values are never read.
	if preOK && m.level == CheckFull {
		topStart := time.Now()
		preFetchBefore := f.preDur
		for _, pc := range plan.Post {
			if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
				continue
			}
			for _, p := range pc.PrePaths {
				if pre.fetched(p) {
					continue
				}
				if err := f.fetchPre(pre, p); err != nil {
					preEvalDur += time.Since(topStart) - (f.preDur - preFetchBefore)
					return snapshotFailed(err)
				}
			}
		}
		preEvalDur += time.Since(topStart) - (f.preDur - preFetchBefore)
		v.DegradedPre = f.degraded
	}

	// A deferred post check reads the cloud after its response returns; a
	// write forwarded underneath it would interfere. Mutations wait here
	// for the pending deferred checks — reads pass straight through — so
	// async verdicts match the synchronous ordering (see fenceWrites).
	m.fenceWrites(r.Method)
	fwdStart := time.Now()
	resp, err := m.forward.Forward(r, &cr.route, params)
	trace[obs.StageForward] = time.Since(fwdStart)
	if err != nil {
		return finish(Error, fmt.Sprintf("forward to cloud: %v", err)), nil, nil
	}
	v.Forwarded = true
	v.BackendStatus = resp.StatusCode
	// A forwarded write may change any state the project's contracts
	// read: drop the project's cached pre-state and tell the fleet hook.
	m.forwardedWrite(r.Method, params["project_id"])

	if !preOK {
		// Observe mode with a forbidden request: the cloud must reject it.
		if resp.Succeeded() {
			return finish(ViolationForbiddenAccepted, fmt.Sprintf(
				"contract forbids %s but cloud answered %d", c.Trigger, resp.StatusCode)), resp, nil
		}
		return finish(Rejected, ""), resp, nil
	}

	if !resp.Succeeded() {
		return finish(ViolationAllowedRejected, fmt.Sprintf(
			"contract permits %s but cloud answered %d", c.Trigger, resp.StatusCode)), resp, nil
	}

	if m.level == CheckPreOnly {
		v.PostOK = true
		return finish(OK, ""), resp, nil
	}

	// The post phase runs over a capture of everything the pre phase
	// learned: the demand fetcher with its accounting, the pre-state env,
	// the per-case antecedent values and the accumulated timings.
	// Synchronous mode consumes the capture right here, on the response
	// path, reusing the pooled frame; PostAsync hands it to the worker
	// pool and returns the response immediately.
	cap := &postCapture{
		m:          m,
		cr:         cr,
		reqCtx:     reqCtx,
		v:          v,
		f:          f,
		pre:        pre,
		anteVals:   anteVals,
		resp:       resp,
		start:      start,
		preEvalDur: preEvalDur,
	}
	if m.post == PostAsync {
		// The pooled frame dies with this call (deferred Release): stop
		// mirroring into it before the capture escapes. The worker
		// re-materializes a frame from the env — BeginPost copies
		// nothing, so a rebuilt frame and a turned-around one are
		// indistinguishable. The response-path trace keeps the pre-phase
		// spans; the worker fills in the post spans on its own copy.
		pre.slotSet = nil
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		// Pending from this moment — before the response is written — so
		// the write fence and DrainPost account for the capture even while
		// ServeHTTP is still carrying it to the queue.
		m.asyncPost.pending.Add(1)
		return v, resp, cap
	}
	return m.postVerify(cap, trace, fr), resp, nil
}

// postCapture is the deferred-verdict record of one forwarded request:
// everything the post phase needs, captured the moment the forward
// completed. The verdict inside carries the final pre-phase fields
// (coverage, antecedents, fetch accounting); postVerify finishes it.
type postCapture struct {
	m          *Monitor
	cr         *compiledRoute
	reqCtx     *RequestContext
	v          Verdict
	f          *lazyFetcher
	pre        *lazyEnv
	anteVals   []ocl.Value
	resp       *BackendResponse
	start      time.Time
	preEvalDur time.Duration
	// trace is the request's pipeline trace as of response return. The
	// async worker owns this copy and adds the post-phase spans; the
	// response path's own trace array is dead once the handler returns.
	trace obs.Trace
	// returned is when the response went back to the client (PostAsync);
	// detection lag is measured from it.
	returned time.Time
}

// postVerify is the post phase shared verbatim by the synchronous check
// and the async workers. The effect frame is the union of what the active
// transitions may change; post-state reads outside it reuse the pre-state
// snapshot (the forwarded call cannot have moved them). fr is the pre
// phase's pooled frame on the synchronous path; async workers pass nil
// and a fresh frame is rebuilt from the captured env — BeginPost copies
// no state, so the rebuilt frame evaluates identically.
func (m *Monitor) postVerify(cap *postCapture, trace *obs.Trace, fr *contract.Frame) Verdict {
	c := cap.cr.contract
	plan := cap.cr.plan
	reqCtx := cap.reqCtx
	f := cap.f
	pre := cap.pre
	anteVals := cap.anteVals
	v := &cap.v
	facts := plan.Facts
	useFacts := !m.noFacts && facts != nil
	comp := plan.Compiled
	useCompiled := m.eval == EvalCompiled && comp != nil
	if useCompiled && fr == nil {
		fr = comp.NewFrame()
		defer comp.Release(fr)
	}
	var postEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(cap.start)
		v.FetchedPaths = f.fetched
		if outcome == ViolationPostcondition {
			v.FailingClause = c.Post.String()
		}
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = cap.preEvalDur
		trace[obs.StagePostSnapshot] = f.postDur
		trace[obs.StagePostEval] = postEvalDur
		return *v
	}
	reqCtx.Phase = PhasePost
	postStart := time.Now()
	var frame map[string]bool
	if !m.noPostReuse {
		frame = make(map[string]bool)
		for _, pc := range plan.Post {
			if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
				continue
			}
			for _, p := range pc.Touched {
				frame[p] = true
			}
		}
	}
	post := newLazyEnv()
	postCtx := ocl.Context{Cur: post, Pre: pre}
	if useCompiled {
		// Turn the frame around: the current bank now describes the
		// post-state (filled on demand below) and the captured pre-state
		// becomes the pre bank. The pre env stops mirroring into the
		// frame — nothing writes it after the forward.
		fr.BeginPost()
		pre.slotSet = nil
		post.slotSet = fr.SetCur
		for path := range pre.have {
			val, present := pre.value(path)
			fr.SetPre(path, val, present)
		}
	}
	fetchPost := func(env *lazyEnv, p string) error {
		if env == pre {
			// Defense against a plan bug: every pre-context path of an
			// active consequent was topped up before the forward.
			return fmt.Errorf("monitor: pre-state path %s demanded after forward", p)
		}
		if frame != nil && !frame[p] && pre.fetched(p) {
			val, present := pre.value(p)
			env.set(p, val, present)
			v.ReusedPaths++
			return nil
		}
		return f.fetchPost(env, p)
	}
	var demandPost func(*contract.Demand) error
	if useCompiled {
		demandPost = func(d *contract.Demand) error {
			if d.Pre {
				// Mirrors the env == pre guard above: every pre-context
				// path of an active consequent was topped up already.
				return fmt.Errorf("monitor: pre-state path %s demanded after forward", d.Path)
			}
			return fetchPost(post, d.Path)
		}
	}
	sawUndef := false
	postOK := true
	for _, pc := range plan.Post {
		ante := anteVals[pc.Index]
		anteBool, anteTrue := boolValue(ante)
		if anteBool && !anteTrue {
			if useFacts && facts.Post[pc.Index].Vacuous() {
				// The skip is ordinary Kleene vacuity, but the antecedent
				// was decided statically — attribute the avoided clause.
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPostClause, 1)
			}
			continue // antecedent false: implication holds, nothing to read
		}
		if !anteBool && ante.Kind != ocl.KindUndefined {
			// The eager engine feeds the antecedent through its boolean
			// connective, which rejects non-boolean kinds.
			postEvalDur = time.Since(postStart) - f.postDur
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v",
				&ocl.EvalError{Expr: c.Post, Message: "boolean operator applied to " + ante.Kind.String()}))
		}
		var consVal ocl.Value
		var err error
		if useCompiled {
			fr.BeginClause()
			consVal, err = evalProgram(comp.PostProgram(pc.Index), fr, demandPost)
			v.DemandedPaths += fr.TakeDemands()
		} else {
			postExpr := c.Cases[pc.Index].Post
			if useFacts {
				postExpr = facts.Post[pc.Index].Folded
			}
			pre.beginClause()
			post.beginClause()
			consVal, err = evalDemand(postExpr, postCtx, fetchPost)
			v.DemandedPaths += pre.takeDemands() + post.takeDemands()
		}
		if err != nil {
			postEvalDur = time.Since(postStart) - f.postDur
			var fe *fetchError
			if errors.As(err, &fe) {
				if m.failPolicy == FailOpen || m.failPolicy == Degrade {
					return finish(Unverified, fmt.Sprintf(
						"post-state snapshot failed (%s): %v", m.failPolicy, fe.err))
				}
				return finish(Error, fmt.Sprintf("post-state snapshot: %v", fe.err))
			}
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v", err))
		}
		consBool, consTrue := boolValue(consVal)
		if !consBool && consVal.Kind != ocl.KindUndefined {
			postEvalDur = time.Since(postStart) - f.postDur
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v",
				&ocl.EvalError{Expr: c.Post, Message: "boolean operator applied to " + consVal.Kind.String()}))
		}
		// Kleene implication given the antecedent is true or undefined:
		//   true  => X  is X;  undef => X  is true only when X is true.
		switch {
		case consBool && consTrue:
			// implication true
		case anteTrue && consBool: // consequent definitely false
			postOK = false
		default:
			sawUndef = true
		}
		if !postOK {
			break // the eager conjunction short-circuits on definite false
		}
	}
	postEvalDur = time.Since(postStart) - f.postDur
	if sawUndef {
		// EvalBool maps an Undefined post-condition to false.
		postOK = false
	}
	v.PostSnapshot = post.vals
	v.PostOK = postOK
	if !postOK {
		return finish(ViolationPostcondition, fmt.Sprintf(
			"post-condition of %s failed: %s", c.Trigger, c.Post))
	}
	return finish(OK, "")
}
