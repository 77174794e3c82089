package loadgen

import (
	"strings"
	"testing"
	"time"

	"cloudmon/internal/faults"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
)

// soakScenario is the mixed read/write matrix the -race soak drives: every
// operation × role cell that produces a distinct verdict class, including
// forbidden writes (Blocked in enforce mode) and anonymous reads.
func soakScenario(clients, requests int) Scenario {
	return Scenario{
		Name: "soak",
		Mix: []OpSpec{
			{Op: OpGetVolume, Role: RoleAdmin, Weight: 10},
			{Op: OpGetVolume, Role: RoleMember, Weight: 10},
			{Op: OpGetVolume, Role: RoleUser, Weight: 8},
			{Op: OpGetVolume, Role: RoleAnonymous, Weight: 2},
			{Op: OpCreateVolume, Role: RoleAdmin, Weight: 6},
			{Op: OpCreateVolume, Role: RoleMember, Weight: 4},
			{Op: OpCreateVolume, Role: RoleUser, Weight: 2},
			{Op: OpUpdateVolume, Role: RoleMember, Weight: 4},
			{Op: OpUpdateVolume, Role: RoleAnonymous, Weight: 1},
			{Op: OpDeleteVolume, Role: RoleAdmin, Weight: 6},
			{Op: OpDeleteVolume, Role: RoleUser, Weight: 2},
		},
		Clients:     clients,
		Requests:    requests,
		Warmup:      requests / 10,
		Prepopulate: 16,
		Seed:        time.Now().UnixNano(), // soak hunts races, not golden outputs
	}
}

// checkVerdictInvariants asserts the structural verdict-outcome invariants
// that must hold for every monitored request no matter how requests
// interleave. Concurrency can legitimately produce violation *outcomes*
// (the snapshot-forward-snapshot workflow is not atomic, so racing writers
// cause TOCTOU post-condition failures); what must never happen is an
// outcome that contradicts its own evidence.
func checkVerdictInvariants(t *testing.T, log []monitor.Verdict, mode monitor.Mode, policy monitor.FailPolicy) {
	t.Helper()
	if policy == 0 {
		policy = monitor.FailClosed
	}
	for i, v := range log {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("verdict %d (%s, outcome %s): "+format,
				append([]any{i, v.Trigger, v.Outcome}, args...)...)
		}
		switch v.Outcome {
		case monitor.Blocked:
			if mode != monitor.Enforce {
				fail("Blocked outside Enforce mode")
			}
			if v.Forwarded {
				fail("Blocked implies not Forwarded")
			}
			if v.PreOK {
				fail("Blocked implies pre-condition failed")
			}
			if v.BackendStatus != 0 {
				fail("Blocked implies no backend status, got %d", v.BackendStatus)
			}
		case monitor.OK:
			if !v.PreOK || !v.Forwarded {
				fail("OK implies PreOK && Forwarded (PreOK=%v Forwarded=%v)", v.PreOK, v.Forwarded)
			}
			if !v.PostOK {
				fail("OK implies PostOK")
			}
			if v.BackendStatus < 200 || v.BackendStatus > 299 {
				fail("OK implies 2xx backend, got %d", v.BackendStatus)
			}
		case monitor.Rejected:
			if v.PreOK {
				fail("Rejected implies pre-condition failed")
			}
			if !v.Forwarded {
				fail("Rejected implies Forwarded")
			}
			if v.BackendStatus >= 200 && v.BackendStatus <= 299 {
				fail("Rejected implies non-2xx backend, got %d", v.BackendStatus)
			}
		case monitor.ViolationForbiddenAccepted:
			if v.PreOK {
				fail("ViolationForbiddenAccepted implies pre-condition failed")
			}
			if !v.Forwarded {
				fail("ViolationForbiddenAccepted implies Forwarded")
			}
			if v.BackendStatus < 200 || v.BackendStatus > 299 {
				fail("ViolationForbiddenAccepted implies 2xx backend, got %d", v.BackendStatus)
			}
		case monitor.ViolationAllowedRejected:
			if !v.PreOK || !v.Forwarded {
				fail("ViolationAllowedRejected implies PreOK && Forwarded")
			}
			if v.BackendStatus >= 200 && v.BackendStatus <= 299 {
				fail("ViolationAllowedRejected implies non-2xx backend, got %d", v.BackendStatus)
			}
		case monitor.ViolationPostcondition:
			if !v.PreOK || !v.Forwarded {
				fail("ViolationPostcondition implies PreOK && Forwarded")
			}
			if v.PostOK {
				fail("ViolationPostcondition implies post-condition failed")
			}
		case monitor.Error:
			// The monitor itself failed; no cloud verdict is implied. But a
			// fail-closed monitor must not have let the request through when
			// the pre-state snapshot was the failure.
			if policy == monitor.FailClosed &&
				strings.HasPrefix(v.Detail, "pre-state snapshot:") && v.Forwarded {
				fail("fail-closed forwarded a request whose pre-state snapshot failed")
			}
		case monitor.Unverified:
			// Shed async captures are the one legitimate Unverified under
			// fail-closed: the queue, not the fail policy, declined the check.
			if policy == monitor.FailClosed && !v.Shed {
				fail("Unverified under fail-closed")
			}
			if !v.Forwarded {
				fail("Unverified implies Forwarded (the gap is a forwarded, unchecked request)")
			}
		default:
			fail("unknown outcome")
		}
		if v.Shed && !v.Late {
			fail("Shed implies Late (a shed verdict is a deferred one)")
		}
		if v.Late {
			if v.Returned.IsZero() {
				fail("Late verdict without a response-return timestamp")
			}
			if v.DetectionLag < 0 {
				fail("negative detection lag %v", v.DetectionLag)
			}
		}
	}
}

// runSoak deploys in process, hammers the monitor with ≥32 concurrent
// clients, and checks every recorded verdict. Run under -race this is the
// concurrency proof for the sharded log, the snapshot fan-out and the
// pre-state cache.
func runSoak(t *testing.T, opts DeployOptions, mode monitor.Mode) *Deployment {
	t.Helper()
	clients, requests := 32, 4000
	if testing.Short() {
		requests = 1200
	}
	opts.Mode = mode
	opts.MaxLog = requests + 256 // retain every verdict for the invariant sweep
	dep, err := Deploy(opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(soakScenario(clients, requests), dep.Target)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Errorf("%d transport errors during soak", report.Errors)
	}
	log := dep.Sys.Monitor.Log()
	if len(log) == 0 {
		t.Fatal("no verdicts recorded")
	}
	checkVerdictInvariants(t, log, mode, opts.FailPolicy)

	// The sharded outcome counters must agree with the retained log.
	fromLog := make(map[monitor.Outcome]int)
	for _, v := range log {
		fromLog[v.Outcome]++
	}
	for outcome, n := range dep.Sys.Monitor.Outcomes() {
		if fromLog[outcome] != n {
			t.Errorf("outcome %s: counter %d, log %d", outcome, n, fromLog[outcome])
		}
	}
	return dep
}

// TestSoakEnforce is the satellite -race soak: 32 concurrent clients, all
// verdict classes, serial snapshots.
func TestSoakEnforce(t *testing.T) {
	runSoak(t, DeployOptions{}, monitor.Enforce)
}

// TestSoakObserve repeats the soak in Observe (test-oracle) mode.
func TestSoakObserve(t *testing.T) {
	runSoak(t, DeployOptions{}, monitor.Observe)
}

// TestSoakHardened repeats the soak with the pre-state cache on, the one
// hot-path optimisation that is a deployment choice.
func TestSoakHardened(t *testing.T) {
	runSoak(t, DeployOptions{
		PreStateCacheTTL: 25 * time.Millisecond,
	}, monitor.Enforce)
}

// TestSoakAsyncPost is the async-pipeline concurrency soak: 32 clients,
// deferred post verification under the block policy. Run under -race this
// proves the capture hand-off, the write fence, the worker pool and the
// pending accounting against the full mixed matrix; the drain guarantee
// is checked by the counter cross-check in runSoak (Run drains before
// diffing).
func TestSoakAsyncPost(t *testing.T) {
	dep := runSoak(t, DeployOptions{Post: monitor.PostAsync}, monitor.Enforce)
	defer dep.Close()
	st := dep.Sys.Monitor.AsyncPostStats()
	if st.Enqueued == 0 {
		t.Fatal("async soak enqueued nothing; the pipeline is not wired in")
	}
	if st.Pending != 0 {
		t.Fatalf("pending %d after drained run", st.Pending)
	}
	if st.Shed != 0 {
		t.Fatalf("block policy shed %d captures", st.Shed)
	}
	if st.Lag.Count != st.Enqueued {
		t.Fatalf("lag histogram holds %d samples for %d enqueued", st.Lag.Count, st.Enqueued)
	}
}

// chaosOpts returns DeployOptions under the checked-in ~20% mixed-fault
// profile, with a fast retry policy so the soak finishes quickly while
// still exercising the backoff and per-attempt-deadline paths.
func chaosOpts(t *testing.T, policy monitor.FailPolicy) DeployOptions {
	t.Helper()
	profile, err := faults.LoadProfile("../faults/testdata/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	return DeployOptions{
		FailPolicy: policy,
		Faults:     profile,
		Retry: osclient.RetryPolicy{
			MaxAttempts:       2,
			BaseDelay:         time.Millisecond,
			MaxDelay:          5 * time.Millisecond,
			PerAttemptTimeout: 500 * time.Millisecond,
		},
	}
}

// TestSoakChaosFailClosed is the acceptance soak: ~20% of cloud calls fail
// while a fail-closed monitor takes the full mixed matrix. The invariant
// sweep proves no request whose pre-state snapshot failed was forwarded
// and no Unverified verdict exists; the counter cross-check proves the
// verdict counters still sum to the log under chaos.
func TestSoakChaosFailClosed(t *testing.T) {
	dep := runSoak(t, chaosOpts(t, monitor.FailClosed), monitor.Enforce)
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("chaos soak injected no faults; the profile is not wired in")
	}
	if n := dep.Sys.Monitor.Outcomes()[monitor.Unverified]; n != 0 {
		t.Fatalf("fail-closed recorded %d Unverified verdicts, want 0", n)
	}
}

// TestSoakChaosFailOpen repeats the chaos soak with availability-first
// policy: snapshot failures must forward and be recorded as Unverified
// (asserted per-verdict by checkVerdictInvariants).
func TestSoakChaosFailOpen(t *testing.T) {
	dep := runSoak(t, chaosOpts(t, monitor.FailOpen), monitor.Enforce)
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("chaos soak injected no faults; the profile is not wired in")
	}
}

// TestSoakChaosAsyncFailOpen combines the ~20% fault profile with async
// post verification: snapshot faults now fire on worker goroutines too,
// so late verdicts carry Error/Unverified outcomes and the invariant
// sweep (including the late-timestamp checks) runs over all of them.
func TestSoakChaosAsyncFailOpen(t *testing.T) {
	opts := chaosOpts(t, monitor.FailOpen)
	opts.Post = monitor.PostAsync
	dep := runSoak(t, opts, monitor.Enforce)
	defer dep.Close()
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("chaos soak injected no faults; the profile is not wired in")
	}
	if st := dep.Sys.Monitor.AsyncPostStats(); st.Enqueued == 0 || st.Pending != 0 {
		t.Fatalf("async stats after chaos soak: %+v", st)
	}
}

// TestSoakChaosAsyncShed saturates a one-slot queue with one worker under
// chaos and the shed policy: every rejected capture must surface as a
// shed Unverified verdict — the only Unverified a fail-closed monitor may
// record — and the counts must agree exactly.
func TestSoakChaosAsyncShed(t *testing.T) {
	opts := chaosOpts(t, monitor.FailClosed)
	opts.Post = monitor.PostAsync
	opts.PostQueueCap = 1
	opts.PostWorkers = 1
	opts.PostBackpressure = monitor.BackpressureShed
	dep := runSoak(t, opts, monitor.Enforce)
	defer dep.Close()
	st := dep.Sys.Monitor.AsyncPostStats()
	if st.Shed == 0 {
		t.Fatal("one-slot queue under 32 clients shed nothing")
	}
	if got := dep.Sys.Monitor.Outcomes()[monitor.Unverified]; got != int(st.Shed) {
		t.Fatalf("Unverified verdicts %d, shed counter %d", got, st.Shed)
	}
}

// TestSoakChaosDegrade adds the stale-cache fallback on top of chaos: the
// pre-state cache both serves the degrade path and races generation
// invalidation against the fault-ridden snapshot fan-out.
func TestSoakChaosDegrade(t *testing.T) {
	opts := chaosOpts(t, monitor.Degrade)
	opts.PreStateCacheTTL = 25 * time.Millisecond
	runSoak(t, opts, monitor.Enforce)
}
