// Package monitor implements the paper's Cloud Monitor (CM): a proxy
// interface on top of a private cloud that verifies every intercepted
// request against the contracts generated from the design models
// (Figure 2's workflow).
//
// For each request the monitor:
//
//  1. snapshots the pre-state — only the navigation-path values the
//     method's contract mentions ("a few bits of storage per method"),
//  2. evaluates the pre-condition on the snapshot,
//  3. forwards the request to the private cloud (in Enforce mode only if
//     the pre-condition holds),
//  4. snapshots the post-state and evaluates the post-condition with the
//     pre-state bound to pre()/@pre references,
//  5. returns the cloud's response, or an invalid-response document
//     describing the contract violation.
//
// Two modes cover the paper's use cases (Section III.B): Enforce protects a
// live cloud by blocking requests whose pre-condition fails; Observe
// forwards everything and acts as a conformance test oracle — the mode the
// mutation campaign uses, where a request the contract forbids but the
// cloud accepts reveals a privilege-escalation fault.
package monitor

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// Mode selects the monitor's behaviour on pre-condition failure.
type Mode int

// Monitor modes.
const (
	// Enforce blocks requests whose pre-condition fails (proxy
	// protection; the workflow of Figure 2).
	Enforce Mode = iota + 1
	// Observe forwards every request and reports contract violations —
	// the test-oracle mode used for mutation analysis.
	Observe
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Enforce:
		return "enforce"
	case Observe:
		return "observe"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "enforce":
		return Enforce, nil
	case "observe":
		return Observe, nil
	}
	return 0, fmt.Errorf("monitor: unknown mode %q (enforce|observe)", s)
}

// FailPolicy decides what a verdict means when the monitor cannot
// snapshot cloud state (cloud flaky or slow past its retries) — the
// degradation semantics a proxy monitor must make explicit, because "no
// snapshot" is otherwise silently either an outage amplifier or an
// enforcement hole.
type FailPolicy int

// Fail policies.
const (
	// FailClosed blocks the request when a snapshot fails: nothing
	// unverifiable reaches the cloud. Availability is sacrificed for
	// enforcement (the default, and the paper's implicit behaviour).
	FailClosed FailPolicy = iota + 1
	// FailOpen forwards the request anyway and records the verdict as
	// Unverified: availability is preserved, the enforcement gap is made
	// auditable instead of silent.
	FailOpen
)

// String returns the policy name.
func (p FailPolicy) String() string {
	switch p {
	case FailClosed:
		return "fail-closed"
	case FailOpen:
		return "fail-open"
	}
	return fmt.Sprintf("FailPolicy(%d)", int(p))
}

// ParseFailPolicy parses a -fail-policy flag value; empty selects the
// default, FailClosed.
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch s {
	case "closed", "":
		return FailClosed, nil
	case "open":
		return FailOpen, nil
	}
	return 0, fmt.Errorf("monitor: unknown fail policy %q (closed|open)", s)
}

// Outcome classifies a monitored request.
type Outcome int

// Outcomes.
const (
	// OK: contract satisfied end to end.
	OK Outcome = iota + 1
	// Blocked: pre-condition failed in Enforce mode; not forwarded.
	Blocked
	// Rejected: pre-condition failed and the cloud also rejected the
	// request (Observe mode) — correct behaviour.
	Rejected
	// ViolationForbiddenAccepted: the contract forbids the request but
	// the cloud accepted it — privilege escalation or a broken guard.
	ViolationForbiddenAccepted
	// ViolationAllowedRejected: the contract permits the request but the
	// cloud rejected it — an authorized user was denied access.
	ViolationAllowedRejected
	// ViolationPostcondition: the request was permitted and accepted but
	// the observed effect contradicts the post-condition.
	ViolationPostcondition
	// Error: the monitor itself failed (cloud unreachable, evaluation
	// error); no verdict about the cloud is implied.
	Error
	// Unverified: a snapshot failed but the fail policy (FailOpen) let the
	// request through — the request was forwarded and answered, but the
	// contract was not (fully) verified. Auditors must treat these as
	// gaps, not as passes.
	Unverified
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Blocked:
		return "blocked"
	case Rejected:
		return "rejected"
	case ViolationForbiddenAccepted:
		return "violation:forbidden-accepted"
	case ViolationAllowedRejected:
		return "violation:allowed-rejected"
	case ViolationPostcondition:
		return "violation:postcondition"
	case Error:
		return "error"
	case Unverified:
		return "unverified"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// IsViolation reports whether the outcome is a contract violation.
func (o Outcome) IsViolation() bool {
	switch o {
	case ViolationForbiddenAccepted, ViolationAllowedRejected, ViolationPostcondition:
		return true
	}
	return false
}

// Snapshot phases, carried on RequestContext so providers (and test fakes)
// can tell a pre-state read from a post-state read — each phase may issue
// several Snapshot calls, so call counting does not identify the phase.
const (
	PhasePre  = "pre"
	PhasePost = "post"
)

// RequestContext describes one intercepted request to the state provider.
type RequestContext struct {
	// Method and Resource identify the contract trigger.
	Method   uml.HTTPMethod
	Resource string
	// Params are the URI captures (e.g. project_id, volume_id).
	Params map[string]string
	// Phase is PhasePre or PhasePost: which snapshot of the monitoring
	// workflow this read belongs to.
	Phase string
	// Token is the requester's X-Auth-Token.
	Token string
}

// StateProvider resolves the navigation paths a contract mentions to
// current cloud state for a given request. Implementations query the
// monitored cloud over REST (see package osbinding); tests use fakes.
// Paths that navigate through missing resources must resolve to
// ocl.Undefined; only infrastructure failures should return an error.
// Concurrent requests share a route's paths slice, so Snapshot must not
// modify it.
type StateProvider interface {
	Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error)
}

// Forwarder sends the (possibly rewritten) request to the private cloud
// and returns its response. The default implementation rewrites the URI by
// the route's backend template and uses an http.Client.
type Forwarder interface {
	Forward(r *http.Request, route *Route, params map[string]string) (*BackendResponse, error)
}

// BackendResponse is the captured cloud response.
type BackendResponse struct {
	StatusCode int
	Header     http.Header
	Body       []byte
}

// Succeeded reports whether the status code is 2xx.
func (r *BackendResponse) Succeeded() bool {
	return r.StatusCode >= 200 && r.StatusCode <= 299
}

// Route binds a contract to URI patterns: Pattern is the monitor-facing
// URI (from the resource model); Backend is the cloud URI template with
// the same `{name}` placeholders.
type Route struct {
	Trigger uml.Trigger
	Pattern string
	Backend string
}

// Verdict records the monitoring result for one request.
type Verdict struct {
	Trigger   uml.Trigger
	Outcome   Outcome
	PreOK     bool
	PostOK    bool
	Forwarded bool
	// BackendStatus is the cloud's response code (0 when not forwarded).
	BackendStatus int
	// SecReqs are the security requirements attached to the contract.
	SecReqs []string
	// MatchedSecReqs are the requirements of the transition cases whose
	// pre-condition held — the coverage signal of Section IV.C.
	MatchedSecReqs []string
	// MatchedTransitions identifies the transition cases whose
	// pre-condition held, as "From->To" labels — model-element coverage
	// for the behavioral diagram.
	MatchedTransitions []string
	// PreSnapshot and PostSnapshot are the state the verdict was computed
	// from, for fault localization.
	PreSnapshot  ocl.MapEnv
	PostSnapshot ocl.MapEnv
	// Detail is a human-readable explanation for violations and errors.
	Detail string
	// FailingClause is the contract clause that decided a negative
	// verdict: the pre-condition for blocked/rejected/forbidden-accepted
	// outcomes, the post-condition for effect violations.
	FailingClause string
	// ContractDigest is the content digest of the contract that produced
	// the verdict (contract.Contract.Digest) — the binding evidence replay
	// checks before comparing outcomes.
	ContractDigest string
	// FetchedPaths counts the state-path reads this verdict issued to the
	// provider, pre and post phases. Every one is the request's own read:
	// no read is shared with another request.
	FetchedPaths int
	// ReusedPaths counts post-state paths served from the pre-state
	// snapshot because no active transition's effect could touch them.
	ReusedPaths int
	// Elapsed is the total monitoring duration. For late verdicts
	// (PostAsync) it spans from request arrival to the deferred
	// post-evaluation's completion — queue wait included.
	Elapsed time.Duration
	// Late marks a verdict whose post phase ran asynchronously, after the
	// response had already returned to the client (PostAsync).
	Late bool
	// Shed is always false: every deferred post phase runs. The field
	// stays only because the end-to-end benchmark under bench/ still
	// reads it.
	Shed bool
	// Returned is when the response was handed back to the client (late
	// verdicts only; zero for synchronous ones).
	Returned time.Time
	// DetectionLag is verdict time minus response-return time (late
	// verdicts only) — by construction non-negative, the regression
	// tests pin it.
	DetectionLag time.Duration
	// Trace holds the per-stage pipeline timings (route match, snapshots,
	// evaluations, forward). Stages the request never reached are zero.
	Trace obs.Trace
}

// CheckLevel selects how much of the contract the monitor verifies per
// request — the ablation axis of the evaluation (a pre-only monitor halves
// the state reads but cannot catch lost-effect faults).
type CheckLevel int

// Check levels.
const (
	// CheckFull verifies pre- and post-conditions (the paper's workflow).
	CheckFull CheckLevel = iota + 1
	// CheckPreOnly verifies only pre-conditions: no post-state snapshot,
	// no effect verification.
	CheckPreOnly
)

// String returns the level name.
func (l CheckLevel) String() string {
	switch l {
	case CheckFull:
		return "full"
	case CheckPreOnly:
		return "pre-only"
	}
	return fmt.Sprintf("CheckLevel(%d)", int(l))
}

// ParseCheckLevel parses a -level flag value.
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "full":
		return CheckFull, nil
	case "pre-only":
		return CheckPreOnly, nil
	}
	return 0, fmt.Errorf("monitor: unknown check level %q (full|pre-only)", s)
}

// Config assembles a Monitor.
type Config struct {
	// Contracts are the generated contracts to enforce.
	Contracts *contract.Set
	// Routes map contract triggers to URI patterns. Required.
	Routes []Route
	// Provider snapshots cloud state. Required.
	Provider StateProvider
	// Forward sends requests to the cloud. Required.
	Forward Forwarder
	// Mode defaults to Enforce.
	Mode Mode
	// Level defaults to CheckFull.
	Level CheckLevel
	// FailPolicy decides the verdict when a state snapshot fails
	// (defaults to FailClosed).
	FailPolicy FailPolicy
	// OnVerdict, if set, is invoked once per verdict, synchronously, from
	// the request goroutine or the async post worker that recorded it —
	// so calls are concurrent and a sink must lock. It is the only way to
	// see every verdict (cloudmon -log-file installs an AuditWriter here);
	// the monitor itself keeps counters, not verdicts.
	OnVerdict func(Verdict)
	// Audit, if set, receives an obs.AuditRecord for every verdict that
	// is not a clean pass (blocked, rejected, violations, errors,
	// unverified forwards) — the durable, SecReq-indexed trail
	// cmd/auditctl queries. OK verdicts are never audited, so the hot
	// path stays write-free under healthy traffic.
	Audit *obs.AuditLog
	// Post selects when post-conditions are verified (defaults to
	// PostSync). PostAsync returns the cloud response as soon as the
	// forward completes and verifies the effect on a bounded worker
	// queue, emitting late verdicts with detection-lag accounting.
	Post PostMode
	// InstanceID names this monitor within a fleet. It is stamped on
	// every audit record (obs.AuditRecord.Instance) so evidence packs cut
	// from a fleet's merged trails attribute each verdict to the engine
	// that produced it. Empty for single-instance deployments.
	InstanceID string
}

// Monitor is the cloud monitor. Safe for concurrent use.
type Monitor struct {
	contracts  *contract.Set
	routes     []compiledRoute
	byMethod   map[string][]*compiledRoute
	provider   StateProvider
	forward    Forwarder
	mode       Mode
	level      CheckLevel
	failPolicy FailPolicy
	onVerdict  func(Verdict)
	audit      *obs.AuditLog
	instanceID string
	// post/asyncPost form the deferred post-verification pipeline
	// (asyncpost.go); asyncPost is nil under PostSync.
	post      PostMode
	asyncPost *asyncPost

	// Counters and per-stage latency histograms live in lock-free obs
	// types — the single source of truth ResetLog, Outcomes(), the
	// /metrics endpoint and loadmon -verify all read.
	tracer        *obs.Tracer
	outcomes      [numOutcomes]obs.Counter
	coverage      obs.KeyedCounter
	transCoverage obs.KeyedCounter
	// pathsFetched distributes per-request provider path reads.
	pathsFetched *obs.Histogram
}

// numOutcomes sizes the outcome counter array (outcomes are 1-based).
const numOutcomes = int(Unverified) + 1

type compiledRoute struct {
	route    Route
	segments []string
	contract *contract.Contract
	// plan is the contract's compiled evaluation plan.
	plan *contract.Plan
	// preReads is the route's pre read set, which a request reads in one
	// Snapshot call before any pre clause runs (see preReadSet).
	preReads []string
	// digest is the contract's content digest, stamped on every verdict
	// (and audit record) the route produces.
	digest string
	// preText and postText are the contract's rendered pre- and
	// post-condition for the verdicts they decide — the texts its digest
	// hashed, rendered once by Generate — and transitions labels each
	// case's transition "From->To on Trigger" for coverage, built once
	// here, not per request.
	preText, postText string
	transitions       []string
}

var _ http.Handler = (*Monitor)(nil)

// New builds a monitor from the configuration.
func New(cfg Config) (*Monitor, error) {
	if cfg.Contracts == nil {
		return nil, fmt.Errorf("monitor: missing contracts")
	}
	if cfg.Provider == nil {
		return nil, fmt.Errorf("monitor: missing state provider")
	}
	if cfg.Forward == nil {
		return nil, fmt.Errorf("monitor: missing forwarder")
	}
	if len(cfg.Routes) == 0 {
		return nil, fmt.Errorf("monitor: no routes")
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = Enforce
	}
	level := cfg.Level
	if level == 0 {
		level = CheckFull
	}
	policy := cfg.FailPolicy
	if policy == 0 {
		policy = FailClosed
	}
	post := cfg.Post
	if post == 0 {
		post = PostSync
	}
	if post == PostAsync && level == CheckPreOnly {
		return nil, fmt.Errorf("monitor: post mode %s is meaningless at check level %s", post, level)
	}
	m := &Monitor{
		contracts:    cfg.Contracts,
		provider:     cfg.Provider,
		forward:      cfg.Forward,
		mode:         mode,
		level:        level,
		failPolicy:   policy,
		onVerdict:    cfg.OnVerdict,
		audit:        cfg.Audit,
		instanceID:   cfg.InstanceID,
		tracer:       obs.NewTracer(),
		pathsFetched: obs.NewCountHistogram(),
		post:         post,
	}
	if post == PostAsync {
		m.asyncPost = newAsyncPost(m, postQueueCap, postWorkers)
	}
	seen := make(map[string]bool, len(cfg.Routes))
	for _, r := range cfg.Routes {
		c, ok := cfg.Contracts.For(r.Trigger)
		if !ok {
			return nil, fmt.Errorf("monitor: route %s has no contract", r.Trigger)
		}
		key := string(r.Trigger.Method) + " " + r.Pattern
		if seen[key] {
			return nil, fmt.Errorf("monitor: conflicting routes for %s", key)
		}
		seen[key] = true
		transitions := make([]string, len(c.Cases))
		for i := range c.Cases {
			t := c.Cases[i].Transition
			transitions[i] = t.From + "->" + t.To + " on " + t.Trigger.String()
		}
		m.routes = append(m.routes, compiledRoute{
			route:       r,
			segments:    httpkit.SplitPath(r.Pattern),
			contract:    c,
			plan:        c.Plan(),
			preReads:    preReadSet(c.Plan(), level),
			digest:      c.Digest(),
			preText:     c.PreText(),
			postText:    c.PostText(),
			transitions: transitions,
		})
	}
	// Index the compiled routes by HTTP method so match() scans only the
	// method's candidates. Built after the append loop: pointers into
	// m.routes are stable from here on.
	m.byMethod = make(map[string][]*compiledRoute, 4)
	for i := range m.routes {
		cr := &m.routes[i]
		meth := string(cr.route.Trigger.Method)
		m.byMethod[meth] = append(m.byMethod[meth], cr)
	}
	return m, nil
}

// preReadSet is every pre-state path a request can read: each pre
// clause's paths and, when the post-condition is checked, each path a
// consequent reads through pre(), which the forward makes unobservable.
// Reading them all in one call costs one round trip where reading each
// path as a program first demands it costs one per path; on the Cinder
// and Nova models every pre clause reads the whole set anyway.
func preReadSet(plan *contract.Plan, level CheckLevel) []string {
	reads := slices.Clone(plan.PrePaths)
	if level == CheckFull {
		for _, pc := range plan.Post {
			for _, p := range pc.PrePaths {
				if !slices.Contains(reads, p) {
					reads = append(reads, p)
				}
			}
		}
	}
	return reads
}

// Mode returns the monitor's mode.
func (m *Monitor) Mode() Mode { return m.mode }

// Level returns the monitor's check level.
func (m *Monitor) Level() CheckLevel { return m.level }

// FailPolicy returns the monitor's snapshot-failure policy.
func (m *Monitor) FailPolicy() FailPolicy { return m.failPolicy }

// Post returns the monitor's post-verification mode.
func (m *Monitor) Post() PostMode { return m.post }

// ServeHTTP implements the proxy entry point.
func (m *Monitor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The trace lives on this frame: stage spans are written into the
	// array as the pipeline advances and folded into the per-stage
	// histograms once — no allocation, no locks on the hot path.
	var trace obs.Trace
	matchStart := time.Now()
	cr, params, ok := m.match(r)
	trace[obs.StageRouteMatch] = time.Since(matchStart)
	if !ok {
		httpkit.WriteError(w, httpkit.NotFound(
			"cloud monitor has no contract route for %s %s", r.Method, r.URL.Path))
		return
	}
	verdict, resp, cap := m.check(r, cr, params, &trace)
	if cap != nil {
		// PostAsync: the pre phase passed and the forward succeeded; the
		// post phase is deferred. The capture owns its trace copy from
		// here; the enqueue runs before the response is written so a full
		// queue's backpressure reaches the client and queue order matches
		// response order. Exactly one verdict is recorded per request — by
		// a worker, or here once the pipeline is closed.
		cap.trace = trace
		cap.returned = time.Now()
		queued := m.asyncPost.enqueue(cap)
		writeBackend(w, resp)
		if !queued {
			m.completePost(cap)
		}
		return
	}
	verdict.Trace = trace
	m.record(verdict)
	m.respond(w, verdict, resp)
}

// match finds the route for the request.
func (m *Monitor) match(r *http.Request) (*compiledRoute, map[string]string, bool) {
	segs := httpkit.SplitPath(r.URL.Path)
	for _, cr := range m.byMethod[r.Method] {
		if params, ok := httpkit.MatchSegments(cr.segments, segs); ok {
			if params == nil {
				params = map[string]string{}
			}
			return cr, params, true
		}
	}
	return nil, nil, false
}

// violationBody is the invalid-response document returned to the CM user.
type violationBody struct {
	Violation struct {
		Outcome string   `json:"outcome"`
		Trigger string   `json:"trigger"`
		Detail  string   `json:"detail"`
		SecReqs []string `json:"sec_reqs,omitempty"`
		Backend int      `json:"backend_status,omitempty"`
	} `json:"violation"`
}

// respond writes the monitor's answer: the cloud's response when the
// contract holds, or a violation document.
func (m *Monitor) respond(w http.ResponseWriter, v Verdict, resp *BackendResponse) {
	switch v.Outcome {
	case OK, Rejected, Unverified:
		// Unverified: the fail policy decided the cloud's answer stands
		// even though the contract could not be (fully) checked.
		writeBackend(w, resp)
	case Blocked:
		httpkit.WriteError(w, httpkit.Errorf(http.StatusPreconditionFailed,
			"precondition_failed", "cloud monitor: %s", v.Detail))
	case Error:
		httpkit.WriteError(w, httpkit.Errorf(http.StatusBadGateway,
			"monitor_error", "cloud monitor: %s", v.Detail))
	default: // violations
		var body violationBody
		body.Violation.Outcome = v.Outcome.String()
		body.Violation.Trigger = v.Trigger.String()
		body.Violation.Detail = v.Detail
		body.Violation.SecReqs = v.SecReqs
		body.Violation.Backend = v.BackendStatus
		httpkit.WriteJSON(w, http.StatusConflict, body)
	}
}

// writeBackend writes the cloud's response to the client, less the
// headers of the cloud's connection to the monitor.
func writeBackend(w http.ResponseWriter, resp *BackendResponse) {
	for k, vals := range resp.Header {
		if hopByHop(resp.Header, http.CanonicalHeaderKey(k)) {
			continue
		}
		for _, val := range vals {
			w.Header().Add(k, val)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if len(resp.Body) > 0 {
		// The response is already committed; a failed write only truncates
		// the body for this one client.
		_, _ = w.Write(resp.Body)
	}
}

// hopByHop reports whether key, a key of header h, is a header of one
// connection, here the cloud's to the monitor rather than the monitor's to
// its client: a hop-by-hop header of RFC 7230 §6.1 (with the others
// httputil.ReverseProxy drops), or one h's Connection header names.
func hopByHop(h http.Header, key string) bool {
	switch key {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
		"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	for _, v := range h["Connection"] {
		for _, name := range strings.Split(v, ",") {
			if http.CanonicalHeaderKey(textproto.TrimString(name)) == key {
				return true
			}
		}
	}
	return false
}

// record updates the lock-free counters and stage histograms, feeds the
// audit sink for non-OK outcomes and hands the verdict to the OnVerdict
// hook. The monitor keeps no verdict itself.
func (m *Monitor) record(v Verdict) {
	if int(v.Outcome) < numOutcomes {
		m.outcomes[v.Outcome].Inc()
	}
	for _, sec := range v.MatchedSecReqs {
		m.coverage.Add(sec, 1)
	}
	for _, tr := range v.MatchedTransitions {
		m.transCoverage.Add(tr, 1)
	}
	m.pathsFetched.ObserveCount(v.FetchedPaths)
	m.tracer.Observe(&v.Trace)
	if m.audit != nil && v.Outcome != OK {
		rec := auditRecord(&v)
		rec.Instance = m.instanceID
		m.audit.Append(rec)
	}
	if m.onVerdict != nil {
		m.onVerdict(v)
	}
}

// InstanceID returns the fleet instance id ("" outside fleets).
func (m *Monitor) InstanceID() string { return m.instanceID }

// auditRecord converts a verdict into the durable audit shape. Late
// verdicts carry both timestamps — when the response returned and how far
// behind it the verdict landed — so lag is reconstructible from the trail
// alone and auditctl summaries stay monotonic.
func auditRecord(v *Verdict) *obs.AuditRecord {
	rec := &obs.AuditRecord{
		Trigger:        v.Trigger.String(),
		Method:         string(v.Trigger.Method),
		Resource:       v.Trigger.Resource,
		Outcome:        v.Outcome.String(),
		SecReqs:        v.SecReqs,
		MatchedSecReqs: v.MatchedSecReqs,
		FailingClause:  v.FailingClause,
		ContractDigest: v.ContractDigest,
		Detail:         v.Detail,
		BackendStatus:  v.BackendStatus,
		Pre:            snapshotDoc(v.PreSnapshot),
		Post:           snapshotDoc(v.PostSnapshot),
		StageNanos:     v.Trace.Map(),
	}
	if v.Late {
		rec.Late = true
		rec.ReturnUnixNano = v.Returned.UnixNano()
		rec.LagNanos = int64(v.DetectionLag)
	}
	return rec
}

// Coverage returns the hit count per security requirement: how often a
// transition annotated with the requirement had its pre-condition matched.
// Requirements declared by the contracts but never exercised appear with
// count zero, so testers can see uncovered requirements (Section IV.C).
func (m *Monitor) Coverage() map[string]int {
	out := make(map[string]int)
	for _, s := range m.contracts.SecReqs() {
		out[s] = 0
	}
	for s, n := range m.coverage.Snapshot() {
		if _, ok := out[s]; ok {
			out[s] += int(n)
		}
	}
	return out
}

// TransitionCoverage returns per-transition hit counts — how often each
// transition's case pre-condition matched a monitored request. Transitions
// never exercised appear with count zero, giving model-element coverage of
// the behavioral diagram.
func (m *Monitor) TransitionCoverage() map[string]int {
	out := make(map[string]int)
	for _, c := range m.contracts.Contracts {
		for _, cs := range c.Cases {
			key := cs.Transition.From + "->" + cs.Transition.To + " on " + cs.Transition.Trigger.String()
			out[key] = 0
		}
	}
	for key, n := range m.transCoverage.Snapshot() {
		if _, ok := out[key]; ok {
			out[key] += int(n)
		}
	}
	return out
}

// Outcomes returns the count per outcome class, read from the same
// atomic counters the /metrics endpoint exports — the counters and the
// exposition document cannot drift apart.
func (m *Monitor) Outcomes() map[Outcome]int {
	out := make(map[Outcome]int)
	for i := 1; i < numOutcomes; i++ {
		if n := m.outcomes[i].Value(); n > 0 {
			out[Outcome(i)] = int(n)
		}
	}
	return out
}

// Tracer exposes the per-stage latency histograms.
func (m *Monitor) Tracer() *obs.Tracer { return m.tracer }

// StageSummaries condenses the per-stage histograms for reports.
func (m *Monitor) StageSummaries() map[string]obs.StageSummary {
	return m.tracer.Summaries()
}

// AuditLog returns the configured audit sink (nil when none).
func (m *Monitor) AuditLog() *obs.AuditLog { return m.audit }

// RegisterMetrics contributes the monitor's counters and histograms to a
// metrics registry under cloudmon_* names. The collectors read the live
// atomic state at scrape time; nothing is copied on the hot path.
func (m *Monitor) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		for i := 1; i < numOutcomes; i++ {
			w.Counter("cloudmon_verdicts_total",
				"Monitored requests by verdict outcome.",
				float64(m.outcomes[i].Value()), obs.L("outcome", Outcome(i).String()))
		}
		w.KeyedCounter("cloudmon_secreq_matched_total",
			"Requests whose matched transition case is annotated with the security requirement.",
			&m.coverage, "secreq")
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			w.Histogram("cloudmon_stage_duration_seconds",
				"Monitor pipeline latency by stage.",
				m.tracer.Stage(s), obs.L("stage", s.String()))
		}
		w.Histogram("cloudmon_snapshot_paths_fetched",
			"State paths fetched from the provider per monitored request (count histogram: 1 unit = 1 path).",
			m.pathsFetched)
		if ap := m.asyncPost; ap != nil {
			w.Histogram("cloudmon_post_lag_seconds",
				"Detection lag of async post verdicts (verdict time minus response-return time).",
				ap.lag)
			w.Gauge("cloudmon_post_queue_depth",
				"Captures enqueued for async post verification and not yet recorded.",
				float64(ap.pending.Load()))
			w.Counter("cloudmon_post_enqueued_total",
				"Captures accepted onto the async post queue.",
				float64(ap.enqueued.Value()))
			w.Counter("cloudmon_post_late_violations_total",
				"Violations detected after the response returned (async post).",
				float64(ap.lateViol.Value()))
			w.Counter("cloudmon_post_fence_waits_total",
				"Mutating forwards that waited on the write fence for pending deferred checks.",
				float64(ap.fenceWaits.Value()))
		}
		if m.audit != nil {
			var total uint64
			for _, n := range m.audit.Counts() {
				total += n
			}
			w.Counter("cloudmon_audit_records_total", "Audit records appended.", float64(total))
		}
	})
}

// ResetLog clears the counters and stage histograms (between mutation
// runs).
func (m *Monitor) ResetLog() {
	for i := range m.outcomes {
		m.outcomes[i].Reset()
	}
	m.coverage.Reset()
	m.transCoverage.Reset()
	m.tracer.Reset()
	m.pathsFetched.Reset()
	if ap := m.asyncPost; ap != nil {
		ap.enqueued.Reset()
		ap.lateViol.Reset()
		ap.fenceWaits.Reset()
		ap.lag.Reset()
	}
}

// FetchStats are the monitor-side fetch-economy counters: how many state
// paths requests actually read.
type FetchStats struct {
	// Requests is the number of verdicts with fetch accounting.
	Requests uint64 `json:"requests"`
	// PathsFetched is the total provider path reads across them.
	PathsFetched uint64 `json:"paths_fetched"`
	// Coalesced is always 0: every request reads its own pre-state, so no
	// fetch is served by another request's read. The field stays only
	// because the end-to-end benchmark under bench/ still reads it.
	Coalesced uint64 `json:"coalesced"`
}

// FetchStats returns the fetch-economy counters.
func (m *Monitor) FetchStats() FetchStats {
	snap := m.pathsFetched.Snapshot()
	return FetchStats{
		Requests:     snap.Count,
		PathsFetched: uint64(snap.Sum + 0.5),
	}
}

// HTTPForwarder is the default Forwarder: it substitutes the captured
// params into the route's backend template (see backendPath) and sends
// the request to BaseURL in one round trip on Client's transport
// (httpkit.Send), as a reverse proxy does: the cloud's answer, a redirect
// included, is what the client gets and what the verdict judges.
type HTTPForwarder struct {
	// BaseURL is the private cloud's root URL. It is read on the first
	// forward and must not change after it.
	BaseURL string
	// Client's transport carries each forward, and its Timeout, when set,
	// bounds it; its redirect policy and cookie jar are not used. It
	// defaults to a pooled client bounded by the shared
	// httpkit.DefaultCloudTimeout knob.
	Client *http.Client
	// Timeout, when positive, bounds each forwarded request with a
	// context deadline — the same knob the snapshot client derives its
	// per-attempt deadline from, so the two cloud-facing paths cannot
	// silently drift apart.
	Timeout time.Duration

	// ep is BaseURL parsed, on the first forward.
	epOnce sync.Once
	ep     *httpkit.Endpoint
}

var _ Forwarder = (*HTTPForwarder)(nil)

// defaultForwardClient pools connections to the backend cloud: the proxy
// forwards every request to the same host, so the idle-connection cap is
// raised past net/http's per-host default of 2, and the shared cloud
// timeout bounds how long a hung cloud can stall a monitored request.
var defaultForwardClient = &http.Client{
	Timeout: httpkit.DefaultCloudTimeout,
	Transport: func() *http.Transport {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 256
		t.MaxIdleConnsPerHost = 64
		return t
	}(),
}

// maxForwardBody bounds the request and response bodies the forwarder
// carries.
const maxForwardBody = httpkit.MaxBodyBytes

// Forward implements Forwarder. A request or response body over
// maxForwardBody fails the forward: a cut request body could be a
// different, valid request, and a cut response would reach the client as
// a short answer no verdict records.
func (f *HTTPForwarder) Forward(r *http.Request, route *Route, params map[string]string) (*BackendResponse, error) {
	target := backendPath(route.Backend, params)
	var body io.Reader
	if r.Body != nil {
		// The client's declared length is not trusted to size the buffer:
		// a client that declares the bound and stalls would pin it before
		// sending a byte.
		data, err := httpkit.ReadBounded(r.Body, maxForwardBody)
		if err != nil {
			return nil, fmt.Errorf("monitor: read request body: %w", err)
		}
		if len(data) > 0 {
			body = bytes.NewReader(data)
		}
	}
	ctx := r.Context()
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		defer cancel()
	}
	req, err := f.endpoint().Request(ctx, r.Method, target, body)
	if err != nil {
		return nil, fmt.Errorf("monitor: build backend request: %w", err)
	}
	for _, h := range forwardedHeaders {
		if vals := r.Header[h]; len(vals) > 0 && vals[0] != "" {
			req.Header[h] = []string{vals[0]}
		}
	}
	client := f.Client
	if client == nil {
		client = defaultForwardClient
	}
	resp, data, err := httpkit.Send(client, req, maxForwardBody)
	if err != nil {
		return nil, fmt.Errorf("monitor: backend request: %w", err)
	}
	// The response is ours alone once its body is read, so its header map
	// is kept rather than copied.
	return &BackendResponse{
		StatusCode: resp.StatusCode,
		Header:     resp.Header,
		Body:       data,
	}, nil
}

// forwardedHeaders are the request headers the forwarder passes on, in
// canonical form: the requester's token and the body's media types.
var forwardedHeaders = [...]string{"X-Auth-Token", "Content-Type", "Accept"}

// endpoint returns BaseURL parsed.
func (f *HTTPForwarder) endpoint() *httpkit.Endpoint {
	f.epOnce.Do(func() { f.ep = httpkit.NewEndpoint(f.BaseURL) })
	return f.ep
}

// backendPath fills a backend template's {name} placeholders in one pass,
// each with its capture path-escaped, so the cloud receives the request
// the monitor checked: a decoded capture can neither cut the path (a "?"
// would start a query) nor be read as another placeholder. Escaping
// leaves plain ids as they are. A placeholder with no capture stays as
// written.
func backendPath(template string, params map[string]string) string {
	var b strings.Builder
	for {
		open := strings.IndexByte(template, '{')
		if open < 0 {
			break
		}
		end := strings.IndexByte(template[open:], '}')
		if end < 0 {
			break
		}
		end += open
		b.WriteString(template[:open])
		if val, ok := params[template[open+1:end]]; ok {
			b.WriteString(url.PathEscape(val))
		} else {
			b.WriteString(template[open : end+1])
		}
		template = template[end+1:]
	}
	b.WriteString(template)
	return b.String()
}
