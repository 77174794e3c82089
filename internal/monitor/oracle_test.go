package monitor

import (
	"fmt"
	"net/http"
	"sort"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// oracle is the paper's monitoring workflow taken literally (§1.4), kept
// as the reference the differential suites hold the monitor to: snapshot
// every state path the contract mentions, evaluate the pre-condition over
// that pre-state (each disjunct in turn, since coverage attribution needs
// every case's truth and the pre-condition holds when one does), forward,
// snapshot every path again, and evaluate the whole post-condition over
// the post-state with the pre-state bound. It runs one volume request of the given method against
// fixed pre and post states and a backend answering status, at check
// level full with no fetch failures, and returns the verdict with the
// response code the monitor writes for it.
func oracle(t *testing.T, set *contract.Set, mode Mode, method string, pre, post ocl.MapEnv, status int) (Verdict, int) {
	t.Helper()
	c, ok := set.For(uml.Trigger{Method: uml.HTTPMethod(method), Resource: "volume"})
	if !ok {
		t.Fatalf("no contract for %s volume", method)
	}
	// Each snapshot reads every path the contract mentions.
	paths := len(c.StatePaths())
	v := Verdict{Trigger: c.Trigger, SecReqs: c.SecReqs}
	done := func(outcome Outcome, detail string) (Verdict, int) {
		v.Outcome = outcome
		v.Detail = detail
		code := status
		switch outcome {
		case Blocked, Rejected, ViolationForbiddenAccepted, ViolationAllowedRejected:
			v.FailingClause = c.Pre.String()
		case ViolationPostcondition:
			v.FailingClause = c.Post.String()
		}
		switch outcome {
		case Blocked:
			code = http.StatusPreconditionFailed
		case Error:
			code = http.StatusBadGateway
		case ViolationForbiddenAccepted, ViolationAllowedRejected, ViolationPostcondition:
			code = http.StatusConflict
		}
		return v, code
	}

	v.PreSnapshot = pre
	v.FetchedPaths = paths
	seen := map[string]bool{}
	for _, cs := range c.Cases {
		ok, err := ocl.EvalBool(cs.Pre, ocl.Context{Cur: v.PreSnapshot})
		if err != nil {
			return done(Error, fmt.Sprintf("pre-condition evaluation: %v", err))
		}
		if !ok {
			continue
		}
		v.PreOK = true
		v.MatchedTransitions = append(v.MatchedTransitions,
			cs.Transition.From+"->"+cs.Transition.To+" on "+cs.Transition.Trigger.String())
		for _, s := range cs.Transition.SecReqs {
			if !seen[s] {
				seen[s] = true
				v.MatchedSecReqs = append(v.MatchedSecReqs, s)
			}
		}
	}
	sort.Strings(v.MatchedSecReqs)
	if !v.PreOK && mode == Enforce {
		return done(Blocked, "pre-condition failed; request not forwarded")
	}
	v.Forwarded = true
	v.BackendStatus = status
	succeeded := status >= 200 && status <= 299
	if !v.PreOK {
		if succeeded {
			return done(ViolationForbiddenAccepted, fmt.Sprintf(
				"contract forbids %s but cloud answered %d", c.Trigger, status))
		}
		return done(Rejected, "")
	}
	if !succeeded {
		return done(ViolationAllowedRejected, fmt.Sprintf(
			"contract permits %s but cloud answered %d", c.Trigger, status))
	}
	v.PostSnapshot = post
	v.FetchedPaths += paths
	postOK, err := ocl.EvalBool(c.Post, ocl.Context{Cur: v.PostSnapshot, Pre: v.PreSnapshot})
	if err != nil {
		return done(Error, fmt.Sprintf("post-condition evaluation: %v", err))
	}
	v.PostOK = postOK
	if !postOK {
		return done(ViolationPostcondition, fmt.Sprintf(
			"post-condition of %s failed: %s", c.Trigger, c.Post))
	}
	return done(OK, "")
}
