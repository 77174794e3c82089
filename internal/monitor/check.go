package monitor

import (
	"errors"
	"fmt"
	"net/http"
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

// fetcher performs the cloud reads of one check, filling the request's
// frame and accounting fetch counts and time per phase. Every read it
// sends is its own: no request shares a read with another, so a verdict
// rests on state read after its request arrived.
type fetcher struct {
	m      *Monitor
	reqCtx *RequestContext
	// fr is the request's one state store: its current bank holds the
	// pre-state until postVerify turns it around for the post-state.
	fr *contract.Frame
	// loneErr is the error of a failed pre read that carried one path:
	// that call was the path's own read, so its failure is final.
	loneErr error

	fetched int
	preDur  time.Duration
	postDur time.Duration
}

// readPre reads a route's pre read set in one Snapshot call and fills the
// frame with every value it returns, so each pre clause then runs once
// over a full frame and the verdict's pre-state holds everything the
// request read. A failed call fills nothing: each path a clause or the
// top-up then demands is read alone (fetchPre) and that read's result is
// final, so every fail-policy decision rests on the path's own read, as
// when every call carries one path, and a failing cloud sees at most one
// read more per path. FetchedPaths counts every path a call carried:
// exact for a provider that reads them all, as osbinding's fan-out does;
// for one that stops at its first failure it overstates a failed call.
func (f *fetcher) readPre(paths []string) {
	if len(paths) == 0 {
		return
	}
	f.fetched += len(paths)
	snap, err := f.snapshot(paths, &f.preDur)
	if err != nil {
		if len(paths) == 1 {
			f.loneErr = err
		}
		return
	}
	for _, p := range paths {
		v, ok := snap[p]
		f.fr.SetCur(p, v, ok)
	}
}

// fetchPre resolves a pre-state path the pre read left unfilled: it reads
// the path alone, unless the failed pre read was already its own.
func (f *fetcher) fetchPre(path string) error {
	if f.loneErr != nil {
		return f.loneErr
	}
	return f.fetchOne(path, &f.preDur)
}

// fetchOne reads one path straight from the cloud into the frame and adds
// the call's time to *dur, the phase's fetch time.
func (f *fetcher) fetchOne(path string, dur *time.Duration) error {
	f.fetched++
	snap, err := f.snapshot([]string{path}, dur)
	if err != nil {
		return err
	}
	v, ok := snap[path]
	f.fr.SetCur(path, v, ok)
	return nil
}

// snapshot reads paths in one Snapshot call and adds the call's time to
// *dur, the phase's fetch time.
func (f *fetcher) snapshot(paths []string, dur *time.Duration) (ocl.MapEnv, error) {
	t0 := time.Now()
	snap, err := f.m.provider.Snapshot(f.reqCtx, paths)
	*dur += time.Since(t0)
	return snap, err
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
// paper's workflow (snapshot, pre, forward, re-query, post): each
// clause's compiled program runs over the request's frame, and a state
// path the frame does not hold yet is fetched the moment a program reads
// it. The differential suites hold it to the whole-snapshot workflow
// verdict for verdict.
//
// Pre-check: the route's pre read set arrives in one call (readPre), then
// every disjunct is evaluated once, in model order (coverage attribution
// needs each case's truth, Section IV.C). Post-check: implications whose
// antecedent was false in the pre-state are skipped outright; active
// consequents re-fetch only paths inside the transitions' effect frame
// and reuse the pre-state for untouched paths.
//
// The third return value is non-nil only under PostAsync: the pre phase
// and the forward are complete, the verdict is deferred, and the capture
// carries everything postVerify needs to finish it off the response path.
// The caller hands it to completePost, whose postVerify releases its frame.
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
	// unless a post capture takes it over — then postVerify releases it.
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

	// Pre phase: read the pre-state, then evaluate every disjunct in
	// model order. The tri-state value is kept per case: the post-check
	// derives each implication's antecedent from it without re-reading
	// the pre-state.
	preStart := time.Now()
	f.readPre(cr.preReads)
	anteVals := make([]ocl.Value, len(c.Cases))
	fr := f.fr
	demandPre := func(d *contract.Demand) error { return f.fetchPre(d.Path) }
	for i := range c.Cases {
		val, err := evalProgram(comp.PreProgram(i), fr, demandPre)
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
	// unobservable once the request is forwarded, so capture any the pre
	// read did not fill, which only a failed pre read leaves. An
	// implication whose antecedent is definitely false is skipped entirely
	// — its consequent is never evaluated, so its old values are never
	// read.
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
// postVerify releases it.
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

// postVerify is the post phase shared verbatim by the synchronous check
// and the async workers, over the same frame the pre phase filled. The
// effect frame is the union of what the active transitions may change;
// post-state reads outside it reuse the pre-state (the forwarded call
// cannot have moved them). It releases the frame.
func (m *Monitor) postVerify(cap *postCapture, trace *obs.Trace) Verdict {
	c := cap.cr.contract
	plan := cap.cr.plan
	comp := plan.Compiled
	f := cap.f
	fr := f.fr
	defer comp.Release(fr)
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
		return f.fetchOne(d.Path, &f.postDur)
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
