package monitor

import (
	"fmt"
	"net/http"
	"sort"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// Replayer re-evaluates audited verdicts without a live cloud: the state
// provider serves the pre/post snapshots the original verdict recorded,
// the forwarder replays the recorded backend status, and the regular
// demand-driven check pipeline (compiled clause programs, the same
// postVerify with its effect-frame reuse) runs over them. Because evaluation demands are a
// deterministic function of the plan and the served values, a faithful
// record reproduces its outcome and failing clause exactly — which is
// what makes the audit trail independently checkable evidence rather
// than an assertion.
//
// Blocked verdicts replay on an Enforce-mode monitor (they were never
// forwarded); every other forwarded outcome replays on an Observe-mode
// monitor with the recorded backend status standing in for the cloud.
// Error and unverified verdicts are skipped: their state is incomplete
// by construction (the snapshot failed the first time around).
//
// Not safe for concurrent use: replay is record-at-a-time.
type Replayer struct {
	enforce *Monitor
	observe *Monitor
	// byTrigger indexes the compiled routes of both monitors by the
	// trigger string audit records carry.
	enforceRoutes map[string]*compiledRoute
	observeRoutes map[string]*compiledRoute

	// cur* is the record being replayed — what the provider and
	// forwarder serve.
	curPre    ocl.MapEnv
	curPost   ocl.MapEnv
	curStatus int
}

// NewReplayer builds a replayer for the contract set the trail was
// monitored under.
func NewReplayer(set *contract.Set) (*Replayer, error) {
	r := &Replayer{}
	build := func(mode Mode) (*Monitor, map[string]*compiledRoute, error) {
		var routes []Route
		for _, c := range set.Contracts {
			routes = append(routes, Route{
				Trigger: c.Trigger,
				// Replay never matches URLs — check() is entered directly
				// with the compiled route — but patterns must be unique.
				Pattern: "/replay/" + string(c.Trigger.Method) + "/" + c.Trigger.Resource,
				Backend: "/replay/" + c.Trigger.Resource,
			})
		}
		m, err := New(Config{
			Contracts: set,
			Routes:    routes,
			Provider:  (*replayProvider)(r),
			Forward:   (*replayForwarder)(r),
			Mode:      mode,
			Level:     CheckFull,
			// Replay re-decides with effect-frame reuse, as the monitor
			// does: an untouched post path is read from the replayed
			// pre-state, which is the value the original post phase
			// reused (reuse fills the frame's post-state bank, so the
			// recorded post snapshot holds it too).
			FailPolicy: FailClosed,
			MaxLog:     1,
		})
		if err != nil {
			return nil, nil, err
		}
		idx := make(map[string]*compiledRoute, len(m.routes))
		for i := range m.routes {
			cr := &m.routes[i]
			idx[cr.route.Trigger.String()] = cr
		}
		return m, idx, nil
	}
	var err error
	if r.enforce, r.enforceRoutes, err = build(Enforce); err != nil {
		return nil, err
	}
	if r.observe, r.observeRoutes, err = build(Observe); err != nil {
		return nil, err
	}
	return r, nil
}

// replayProvider serves snapshots from the current record. A path absent
// from the recorded snapshot is served as absent, which the frame
// resolves to OclUndefined — the same value the original evaluation saw
// for a fetched-but-missing resource.
type replayProvider Replayer

func (p *replayProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	src := p.curPre
	if ctx.Phase == PhasePost {
		src = p.curPost
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := src[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// replayForwarder replays the recorded backend status.
type replayForwarder Replayer

func (f *replayForwarder) Forward(r *http.Request, route *Route, params map[string]string) (*BackendResponse, error) {
	return &BackendResponse{StatusCode: f.curStatus, Header: http.Header{}}, nil
}

// ReplayResult is the verdict-level outcome of replaying one record.
type ReplayResult struct {
	Seq     uint64 `json:"seq"`
	Trigger string `json:"trigger"`
	// Recorded is the outcome the trail claims.
	Recorded string `json:"recorded"`
	// Replayed is the outcome the re-evaluation produced (empty when
	// skipped).
	Replayed string `json:"replayed,omitempty"`
	// Skipped carries the reason a record was not replayable.
	Skipped string `json:"skipped,omitempty"`
	// ContractMismatch: the record's contract digest does not match the
	// replayer's contract for the trigger — the verdict binds to a
	// different contract version, so comparing outcomes would be
	// meaningless. Counted as a failure, not a skip.
	ContractMismatch bool `json:"contract_mismatch,omitempty"`
	// Diverged: the replayed outcome or failing clause differs.
	Diverged bool   `json:"diverged,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// Replay re-evaluates one audit record.
func (r *Replayer) Replay(rec *obs.AuditRecord) ReplayResult {
	res := ReplayResult{Seq: rec.Seq, Trigger: rec.Trigger, Recorded: rec.Outcome}
	switch rec.Outcome {
	case Error.String():
		res.Skipped = "error verdicts carry no complete state"
		return res
	case Unverified.String():
		res.Skipped = "unverified verdicts carry no complete state"
		return res
	}
	mon, routes := r.observe, r.observeRoutes
	if rec.Outcome == Blocked.String() {
		mon, routes = r.enforce, r.enforceRoutes
	}
	tr := uml.Trigger{Method: uml.HTTPMethod(rec.Method), Resource: rec.Resource}
	cr, ok := routes[tr.String()]
	if !ok {
		res.Skipped = fmt.Sprintf("no contract for trigger %s", tr)
		return res
	}
	if rec.ContractDigest != "" && rec.ContractDigest != cr.digest {
		res.ContractMismatch = true
		res.Reason = fmt.Sprintf("record bound to contract %s, replaying against %s",
			rec.ContractDigest, cr.digest)
		return res
	}
	pre, err := parseSnapshot(rec.Pre)
	if err != nil {
		res.Skipped = fmt.Sprintf("unparsable pre snapshot: %v", err)
		return res
	}
	post, err := parseSnapshot(rec.Post)
	if err != nil {
		res.Skipped = fmt.Sprintf("unparsable post snapshot: %v", err)
		return res
	}
	r.curPre, r.curPost, r.curStatus = pre, post, rec.BackendStatus

	req, err := http.NewRequest(rec.Method, "http://replay.invalid/", nil)
	if err != nil {
		res.Skipped = fmt.Sprintf("build replay request: %v", err)
		return res
	}
	var trace obs.Trace
	v, _, cap := mon.check(req, cr, map[string]string{}, &trace)
	if cap != nil {
		// Unreachable: replay monitors run synchronous post. Recorded so
		// a future regression cannot silently drop verdicts.
		res.Skipped = "internal: replay produced a deferred capture"
		return res
	}
	res.Replayed = v.Outcome.String()
	switch {
	case res.Replayed != res.Recorded:
		res.Diverged = true
		res.Reason = fmt.Sprintf("outcome %s replayed as %s", res.Recorded, res.Replayed)
	case v.FailingClause != rec.FailingClause:
		res.Diverged = true
		res.Reason = fmt.Sprintf("failing clause %q replayed as %q", rec.FailingClause, v.FailingClause)
	}
	return res
}

// parseSnapshot rebuilds a state environment from the OCL literal map an
// audit record carries.
func parseSnapshot(doc map[string]string) (ocl.MapEnv, error) {
	env := make(ocl.MapEnv, len(doc))
	for path, lit := range doc {
		v, err := ocl.ParseValue(lit)
		if err != nil {
			return nil, fmt.Errorf("path %s: %w", path, err)
		}
		env[path] = v
	}
	return env, nil
}

// ReplaySummary aggregates a whole-trail replay.
type ReplaySummary struct {
	Total    int `json:"total"`
	Replayed int `json:"replayed"`
	Matched  int `json:"matched"`
	// Diverged counts replayed records whose outcome or failing clause
	// differs, plus contract-digest mismatches — any non-zero value means
	// the trail does not reproduce.
	Diverged         int            `json:"diverged"`
	ContractMismatch int            `json:"contract_mismatch"`
	Skipped          int            `json:"skipped"`
	SkipReasons      map[string]int `json:"skip_reasons,omitempty"`
	// Failures lists the diverged and mismatched records.
	Failures []ReplayResult `json:"failures,omitempty"`
}

// OK reports whether every replayable record reproduced its verdict.
func (s *ReplaySummary) OK() bool { return s.Diverged == 0 && s.ContractMismatch == 0 }

// ReplayAll replays every record and aggregates the results.
func (r *Replayer) ReplayAll(recs []obs.AuditRecord) *ReplaySummary {
	sum := &ReplaySummary{SkipReasons: map[string]int{}}
	for i := range recs {
		res := r.Replay(&recs[i])
		sum.Total++
		switch {
		case res.ContractMismatch:
			sum.ContractMismatch++
			sum.Diverged++
			sum.Failures = append(sum.Failures, res)
		case res.Skipped != "":
			sum.Skipped++
			sum.SkipReasons[res.Skipped]++
		case res.Diverged:
			sum.Replayed++
			sum.Diverged++
			sum.Failures = append(sum.Failures, res)
		default:
			sum.Replayed++
			sum.Matched++
		}
	}
	if len(sum.SkipReasons) == 0 {
		sum.SkipReasons = nil
	}
	// Deterministic failure ordering for reports.
	sort.Slice(sum.Failures, func(i, j int) bool { return sum.Failures[i].Seq < sum.Failures[j].Seq })
	return sum
}
