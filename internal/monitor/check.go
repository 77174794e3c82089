package monitor

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// fetchError wraps a cloud fetch failure so the check loop can tell
// snapshot failures (fail-policy territory) from formula evaluation errors.
type fetchError struct{ err error }

func (e *fetchError) Error() string { return e.err.Error() }
func (e *fetchError) Unwrap() error { return e.err }

// errUnresolved is the result of every path a failed Snapshot call carried
// when it carried several: the call's error belongs to no path in
// particular, so whoever needs one of them reads it on its own.
var errUnresolved = errors.New("monitor: a failed multi-path read left this path unresolved")

// fetcher performs the per-path cloud reads of one check, filling the
// request's frame and accounting fetch counts and time per phase. Every
// read it sends is its own: no request shares a read with another, so a
// verdict rests on state read after its request arrived.
type fetcher struct {
	m      *Monitor
	reqCtx *RequestContext
	// fr is the request's one state store: its current bank holds the
	// pre-state until postVerify turns it around for the post-state.
	fr *contract.Frame

	// clause holds the paths of the pre clause under evaluation (nil for
	// top-up reads): a demand for one of them fetches the clause's other
	// unfetched paths in the same Snapshot call.
	clause []string
	// ahead holds the results of wave reads no demand has consumed yet. A
	// path enters the frame only when demanded, so evaluation, the top-up
	// and post reuse see exactly the paths a one-path-per-call loop would
	// have read. A wave carries a clause's few paths, so a slice searched
	// in order serves.
	ahead []aheadRead

	fetched int
	preDur  time.Duration
	postDur time.Duration
}

// pathRead is one path's result from a Snapshot call.
type pathRead struct {
	val     ocl.Value
	present bool
	err     error
}

// aheadRead is a wave's result for a path not yet demanded.
type aheadRead struct {
	path string
	rd   pathRead
}

// aheadIndex returns the index of path's result in ahead, or -1.
func (f *fetcher) aheadIndex(path string) int {
	for i := range f.ahead {
		if f.ahead[i].path == path {
			return i
		}
	}
	return -1
}

// fetchPre resolves one pre-state path into the frame: a result a wave
// already brought, else a wave with the current clause's other unfetched
// paths, and the path alone outside a clause or after a failed multi-path
// read left it unresolved.
func (f *fetcher) fetchPre(path string) error {
	var rd pathRead
	if i := f.aheadIndex(path); i >= 0 {
		rd = f.ahead[i].rd
		last := len(f.ahead) - 1
		f.ahead[i] = f.ahead[last]
		f.ahead[last] = aheadRead{}
		f.ahead = f.ahead[:last]
	} else {
		rd = f.fetchWave(path, f.clause)
	}
	if rd.err == errUnresolved {
		rd = f.fetchWave(path, nil)
	}
	if rd.err != nil {
		return rd.err
	}
	f.fr.SetCur(path, rd.val, rd.present)
	return nil
}

// fetchWave reads a demanded pre-state path together with clause's other
// unfetched paths in one Snapshot call, and returns the demanded path's
// result. Only that result can fail the clause; the others wait in ahead
// for their own demand. When a call carrying several paths fails, each of
// its paths is left errUnresolved: nothing re-reads them now, and a demand
// for one later reads it alone, so every fail-policy decision rests on
// that path's own result, as in a one-path-per-call loop, and a failing
// cloud sees at most one read more per path than that loop sends it.
// FetchedPaths counts every path a call carried: exact for a provider that
// reads them all, as osbinding's fan-out does; for one that stops at its
// first failure it overstates a failed call.
func (f *fetcher) fetchWave(demanded string, clause []string) pathRead {
	paths := append(make([]string, 0, 1+len(clause)), demanded)
	for _, p := range clause {
		if p == demanded {
			continue
		}
		if _, _, filled := f.fr.Cur(p); filled {
			continue
		}
		if f.aheadIndex(p) >= 0 {
			continue
		}
		paths = append(paths, p)
	}
	f.fetched += len(paths)
	if len(paths) > 1 {
		f.m.waves.Inc()
	}
	snap, err := f.snapshot(paths, &f.preDur)
	if err != nil && len(paths) > 1 {
		err = errUnresolved
	}
	f.ahead = slices.Grow(f.ahead, len(paths)-1)
	for _, p := range paths[1:] {
		f.ahead = append(f.ahead, aheadRead{path: p, rd: readOf(snap, p, err)})
	}
	return readOf(snap, demanded, err)
}

// snapshot reads paths in one Snapshot call and adds the call's time to
// *dur, the phase's fetch time.
func (f *fetcher) snapshot(paths []string, dur *time.Duration) (ocl.MapEnv, error) {
	t0 := time.Now()
	snap, err := f.m.provider.Snapshot(f.reqCtx, paths)
	*dur += time.Since(t0)
	return snap, err
}

// readOf is path's result from a Snapshot call that returned snap and err.
func readOf(snap ocl.MapEnv, path string, err error) pathRead {
	if err != nil {
		return pathRead{err: err}
	}
	val, present := snap[path]
	return pathRead{val: val, present: present}
}

// fetchPost resolves one post-state path straight from the cloud into the
// frame: the post-condition verifies this request's own effect.
func (f *fetcher) fetchPost(path string) error {
	f.fetched++
	snap, err := f.snapshot([]string{path}, &f.postDur)
	if err != nil {
		return err
	}
	v, ok := snap[path]
	f.fr.SetCur(path, v, ok)
	return nil
}

// evalProgram runs a clause's closure-chain program, fetching a state path
// the moment a slot demand surfaces and re-running the program. The loop
// terminates because every successful fetch fills its slot, and a filled
// slot cannot demand again. Fetch failures come back wrapped in
// fetchError; all other errors are genuine evaluation errors. A program
// returns its demands unwrapped, so a type assertion finds them without
// errors.As, whose target would escape on every run.
func evalProgram(prog *contract.Program, fr *contract.Frame, fetch func(*contract.Demand) error) (ocl.Value, error) {
	for {
		val, err := prog.Run(fr)
		if err == nil {
			return val, nil
		}
		d, ok := err.(*contract.Demand)
		if !ok {
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

// check runs the monitoring workflow for a matched request and returns the
// verdict plus the backend response (nil when not forwarded). It is the
// paper's workflow (snapshot, pre, forward, re-query, post) with the
// snapshots taken on demand: each clause's compiled program runs over the
// request's frame and fetches a state path the first time it reads one,
// so a verdict costs only the cloud reads it needs. The differential
// suites hold it to the whole-snapshot workflow verdict for verdict.
//
// Pre-check: every disjunct is evaluated (coverage attribution needs each
// case's truth, Section IV.C) in plan order, but demand-driven — a failed
// source invariant never fetches the guard's paths, and disjuncts sharing
// paths pay once. Post-check: implications whose antecedent was false in
// the pre-state are skipped outright; active consequents re-fetch only
// paths inside the transitions' effect frame and reuse the pre-state
// for untouched paths.
//
// The third return value is non-nil only under PostAsync: the pre phase
// and the forward are complete, the verdict is deferred, and the capture
// carries everything postVerify needs to finish it off the response path.
// The caller must enqueue or shed it: either ends by releasing its frame.
func (m *Monitor) check(r *http.Request, cr *compiledRoute, params map[string]string, trace *obs.Trace) (Verdict, *BackendResponse, *postCapture) {
	start := time.Now()
	c := cr.contract
	plan := cr.plan
	comp := plan.Compiled
	reqCtx := &RequestContext{
		Method:   c.Trigger.Method,
		Resource: c.Trigger.Resource,
		Params:   params,
		Token:    r.Header.Get("X-Auth-Token"),
		Phase:    PhasePre,
	}
	v := Verdict{Trigger: c.Trigger, SecReqs: c.SecReqs, ContractDigest: cr.digest}
	f := &fetcher{
		m:      m,
		reqCtx: reqCtx,
		fr:     comp.NewFrame(),
	}
	// The frame goes back to the pool when the verdict is final: here,
	// unless a post capture takes it over — then postVerify or
	// shedVerdict releases it.
	captured := false
	defer func() {
		if !captured {
			comp.Release(f.fr)
		}
	}()
	var preEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(start)
		v.FetchedPaths = f.fetched
		switch outcome {
		case Blocked, Rejected, ViolationForbiddenAccepted, ViolationAllowedRejected:
			v.FailingClause = cr.preText
		}
		// Fetch time accumulates into the snapshot stage; the evaluation
		// stage gets the remainder of the interleaved phase.
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		return v
	}
	// snapshotFailed runs the pre-forward fail-policy branches shared by
	// the pre-check and the pre-state top-up.
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
			return finish(Unverified, fmt.Sprintf("pre-state snapshot failed (fail-open): %v", err)), resp, nil
		}
		return finish(Error, fmt.Sprintf("pre-state snapshot: %v", err)), nil, nil
	}

	// Pre phase: evaluate every disjunct, cheapest-planned first. The
	// tri-state value is kept per case: the post-check derives each
	// implication's antecedent from it without re-reading the pre-state.
	preStart := time.Now()
	anteVals := make([]ocl.Value, len(c.Cases))
	fr := f.fr
	demandPre := func(d *contract.Demand) error { return f.fetchPre(d.Path) }
	for _, cl := range plan.Pre {
		i := cl.Index
		// A demand fetches the clause's other unfetched paths with it.
		// Top-up reads stay one path per call.
		f.clause = cl.Paths
		val, err := evalProgram(comp.PreProgram(i), fr, demandPre)
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

	// Coverage attribution in model order.
	preOK := false
	var matched, matchedTrans []string
	seen := make(map[string]bool)
	for i := range c.Cases {
		if isBool, b := boolValue(anteVals[i]); !isBool || !b {
			continue
		}
		preOK = true
		matchedTrans = append(matchedTrans, cr.transitions[i])
		for _, s := range c.Cases[i].Transition.SecReqs {
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

	// Pre-state top-up: pre-context paths of active consequents are
	// unobservable once the request is forwarded, so capture any the
	// disjunct evaluation did not already touch. An implication whose
	// antecedent is definitely false is skipped entirely — its consequent
	// is never evaluated, so its old values are never read.
	var topErr error
	if preOK && m.level == CheckFull {
		topStart := time.Now()
		preFetchBefore := f.preDur
	topUp:
		for _, pc := range plan.Post {
			if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
				continue
			}
			for _, p := range pc.PrePaths {
				if _, _, filled := fr.Cur(p); filled {
					continue
				}
				if topErr = f.fetchPre(p); topErr != nil {
					break topUp
				}
			}
		}
		preEvalDur += time.Since(topStart) - (f.preDur - preFetchBefore)
	}
	// The pre-state of record: everything the pre phase read.
	v.PreSnapshot = fr.CurEnv()
	if !preOK && m.mode == Enforce {
		return finish(Blocked, "pre-condition failed; request not forwarded"), nil, nil
	}
	if topErr != nil {
		return snapshotFailed(topErr)
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
	// learned: the fetcher with its frame and accounting, the per-case
	// antecedent values and the accumulated timings. Synchronous mode
	// consumes the capture right here, on the response path; PostAsync
	// hands it, frame and all, to the worker pool and returns the response
	// immediately.
	captured = true
	cap := &postCapture{
		cr:         cr,
		v:          v,
		f:          f,
		anteVals:   anteVals,
		start:      start,
		preEvalDur: preEvalDur,
	}
	if m.post == PostAsync {
		// The response-path trace keeps the pre-phase spans; the worker
		// fills in the post spans on its own copy.
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		// Pending from this moment — before the response is written — so
		// the write fence and DrainPost account for the capture even while
		// ServeHTTP is still carrying it to the queue.
		m.asyncPost.pending.Add(1)
		return v, resp, cap
	}
	return m.postVerify(cap, trace), resp, nil
}

// postCapture is the deferred-verdict record of one forwarded request:
// everything the post phase needs, captured the moment the forward
// completed. The verdict inside carries the final pre-phase fields
// (coverage, antecedents, fetch accounting); postVerify finishes it. The
// capture owns the request's frame (through its fetcher) until
// postVerify or shedVerdict releases it.
type postCapture struct {
	cr         *compiledRoute
	v          Verdict
	f          *fetcher
	anteVals   []ocl.Value
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

// release returns the capture's frame to its pool.
func (cap *postCapture) release() { cap.cr.plan.Compiled.Release(cap.f.fr) }

// postVerify is the post phase shared verbatim by the synchronous check
// and the async workers, over the same frame the pre phase filled. The
// effect frame is the union of what the active transitions may change;
// post-state reads outside it reuse the pre-state (the forwarded call
// cannot have moved them). It releases the frame.
func (m *Monitor) postVerify(cap *postCapture, trace *obs.Trace) Verdict {
	defer cap.release()
	c := cap.cr.contract
	plan := cap.cr.plan
	comp := plan.Compiled
	f := cap.f
	fr := f.fr
	anteVals := cap.anteVals
	v := &cap.v
	var postEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(cap.start)
		v.FetchedPaths = f.fetched
		if outcome == ViolationPostcondition {
			v.FailingClause = cap.cr.postText
		}
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = cap.preEvalDur
		trace[obs.StagePostSnapshot] = f.postDur
		trace[obs.StagePostEval] = postEvalDur
		return *v
	}
	f.reqCtx.Phase = PhasePost
	postStart := time.Now()
	touched := make(map[string]bool)
	for _, pc := range plan.Post {
		if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
			continue
		}
		for _, p := range pc.Touched {
			touched[p] = true
		}
	}
	// Turn the frame around: the pre-state becomes the pre bank, and the
	// current bank starts empty for the post-state, filled on demand.
	fr.BeginPost()
	demandPost := func(d *contract.Demand) error {
		if d.Pre {
			// Defense against a plan bug: every pre-context path of an
			// active consequent was topped up before the forward.
			return fmt.Errorf("monitor: pre-state path %s demanded after forward", d.Path)
		}
		if !touched[d.Path] {
			if val, present, ok := fr.Pre(d.Path); ok {
				fr.SetCur(d.Path, val, present)
				v.ReusedPaths++
				return nil
			}
		}
		return f.fetchPost(d.Path)
	}
	sawUndef := false
	postOK := true
	for _, pc := range plan.Post {
		ante := anteVals[pc.Index]
		anteBool, anteTrue := boolValue(ante)
		if anteBool && !anteTrue {
			continue // antecedent false: implication holds, nothing to read
		}
		if !anteBool && ante.Kind != ocl.KindUndefined {
			// The whole post-condition feeds the antecedent through its
			// boolean connective, which rejects non-boolean kinds.
			postEvalDur = time.Since(postStart) - f.postDur
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v",
				&ocl.EvalError{Expr: c.Post, Message: "boolean operator applied to " + ante.Kind.String()}))
		}
		consVal, err := evalProgram(comp.PostProgram(pc.Index), fr, demandPost)
		if err != nil {
			postEvalDur = time.Since(postStart) - f.postDur
			var fe *fetchError
			if errors.As(err, &fe) {
				if m.failPolicy == FailOpen {
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
			break // the whole conjunction short-circuits on definite false
		}
	}
	postEvalDur = time.Since(postStart) - f.postDur
	if sawUndef {
		// EvalBool maps an Undefined post-condition to false.
		postOK = false
	}
	v.PostSnapshot = fr.CurEnv()
	v.PostOK = postOK
	if !postOK {
		return finish(ViolationPostcondition, fmt.Sprintf(
			"post-condition of %s failed: %s", c.Trigger, cap.cr.postText))
	}
	return finish(OK, "")
}
