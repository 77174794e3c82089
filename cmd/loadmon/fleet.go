package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
)

// printFleetSummary reports where the sharded run's traffic went.
func printFleetSummary(dep *loadgen.Deployment, out io.Writer) {
	st := dep.Front.Stats()
	fmt.Fprintf(out, "fleet: %d instances, %d projects, %d requests routed, %d remaps, %d fence waits\n",
		dep.Front.Ring().Size(), st.Projects, st.Requests, st.Remaps, st.FenceWaits)
	for _, in := range dep.Instances {
		fmt.Fprintf(out, "  %s: %d requests\n", in.ID, st.Routed[in.ID])
	}
}

// verifyFront asserts the front's invariants: routing stayed stable on
// the steady run — no remaps, and every project the front saw sits with
// its ring owner — and a fresh fleet absorbs a mid-run 3→4 resize.
func verifyFront(dep *loadgen.Deployment, opts loadgen.Options, out io.Writer) error {
	st := dep.Front.Stats()
	if st.Remaps != 0 {
		return fmt.Errorf("verify: steady fleet run recorded %d remaps — per-project routing is unstable", st.Remaps)
	}
	ring := dep.Front.Ring()
	for project, owner := range dep.Front.Owners() {
		if want := ring.Owner(project); owner != want {
			return fmt.Errorf("verify: project %s is owned by %s, ring assigns %s", project, owner, want)
		}
	}
	if err := verifyResize(opts, out); err != nil {
		return err
	}
	fmt.Fprintln(out, "verify: fleet invariants hold (routing stable; resize bounded)")
	return nil
}

// verifyResize deploys a fresh 4-instance fleet rung at 3, grows it to 4
// a third of the way through a mixed run, and asserts the elasticity
// invariants: zero transport errors, one verdict per request, no
// monitor-error or unverified outcomes, and a remap set bounded by 40% of
// the projects (rendezvous moves ~1/N′).
func verifyResize(opts loadgen.Options, out io.Writer) error {
	const (
		tenants  = 120
		requests = 1800
	)
	// The resize proof must attribute every anomaly to routing alone: no
	// fault injection, no audit trail, no simulated RTT or connection
	// budget to slow it down; the monitor knobs stay whatever the main
	// run used.
	fdep, err := loadgen.Deploy(loadgen.Options{Monitor: opts.Monitor, Instances: 4, TenantCount: tenants})
	if err != nil {
		return fmt.Errorf("verify: deploy resize fleet: %w", err)
	}
	defer fdep.Close()
	if err := fdep.Resize(3); err != nil {
		return fmt.Errorf("verify: shrink resize fleet: %w", err)
	}
	oldRing := fdep.Front.Ring()

	var count atomic.Int64
	var once sync.Once
	var resizeErr error
	tgt := fdep.Target
	inner := tgt.HTTPClient.Transport
	tgt.HTTPClient = &http.Client{Transport: tripperFunc(func(req *http.Request) (*http.Response, error) {
		if count.Add(1) == requests/3 {
			once.Do(func() { resizeErr = fdep.Resize(4) })
		}
		return inner.RoundTrip(req)
	})}

	sc, err := loadgen.Lookup("cinder-mixed")
	if err != nil {
		return err
	}
	sc.Name = "fleet-resize"
	sc.Requests = requests
	sc.Warmup = 0
	sc.Prepopulate = 4
	sc.Clients = 16
	rep, err := loadgen.Run(sc, tgt)
	if err != nil {
		return fmt.Errorf("verify: resize run: %w", err)
	}
	if resizeErr != nil {
		return fmt.Errorf("verify: mid-run resize: %w", resizeErr)
	}
	if rep.Errors != 0 {
		return fmt.Errorf("verify: %d transport errors across the resize — requests were dropped", rep.Errors)
	}
	total := 0
	for _, n := range rep.Verdicts {
		total += n
	}
	if total != requests {
		return fmt.Errorf("verify: resize run verdicts sum to %d, want %d — a request was dropped or double-judged", total, requests)
	}
	for _, outcome := range []monitor.Outcome{monitor.Error, monitor.Unverified} {
		if n := rep.Verdicts[outcome.String()]; n != 0 {
			return fmt.Errorf("verify: resize run recorded %d %s verdicts on a fault-free cloud — a request was misjudged", n, outcome)
		}
	}

	newRing := fdep.Front.Ring()
	if newRing.Size() != 4 {
		return fmt.Errorf("verify: ring size %d after resize, want 4", newRing.Size())
	}
	moved := 0
	for _, tn := range fdep.Tenants {
		if oldRing.Owner(tn.ProjectID) != newRing.Owner(tn.ProjectID) {
			moved++
		}
	}
	if bound := tenants * 40 / 100; moved > bound {
		return fmt.Errorf("verify: 3→4 resize moved %d of %d projects, want ≤ %d (40%%)", moved, tenants, bound)
	}
	st := fdep.Front.Stats()
	if st.Remaps == 0 {
		return fmt.Errorf("verify: resize recorded no remaps — the fourth instance took nothing over")
	}
	if int(st.Remaps) > moved {
		return fmt.Errorf("verify: front recorded %d remaps for %d moved projects — a project remapped twice", st.Remaps, moved)
	}
	for project, owner := range fdep.Front.Owners() {
		if want := newRing.Owner(project); owner != want {
			return fmt.Errorf("verify: project %s stuck on %s after resize, ring assigns %s", project, owner, want)
		}
	}
	fmt.Fprintf(out, "verify: 3→4 resize moved %d/%d projects (%d remaps, %d fence waits), zero dropped or misjudged\n",
		moved, tenants, st.Remaps, st.FenceWaits)
	return nil
}

type tripperFunc func(*http.Request) (*http.Response, error)

func (f tripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
