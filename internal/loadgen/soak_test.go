package loadgen

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/faults"
	"cloudmon/internal/monitor"
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

// verdictSink collects every verdict a deployment records; install its
// add method as the monitors' OnVerdict hook (a fleet's members share
// it). The hook runs on request goroutines and async post workers, so
// the sink locks.
type verdictSink struct {
	mu       sync.Mutex
	verdicts []monitor.Verdict
}

func (s *verdictSink) add(v monitor.Verdict) {
	s.mu.Lock()
	s.verdicts = append(s.verdicts, v)
	s.mu.Unlock()
}

// all returns the verdicts in the order they were recorded.
func (s *verdictSink) all() []monitor.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]monitor.Verdict(nil), s.verdicts...)
}

// checkCountsMatch asserts the hook saw every verdict the instances
// counted, exactly once: per outcome, the sink and the counters agree.
func checkCountsMatch(t *testing.T, dep *Deployment, verdicts []monitor.Verdict) {
	t.Helper()
	fromHook := make(map[monitor.Outcome]int)
	for _, v := range verdicts {
		fromHook[v.Outcome]++
	}
	for outcome, n := range dep.Outcomes() {
		if fromHook[outcome] != n {
			t.Errorf("outcome %s: counters %d, hook %d", outcome, n, fromHook[outcome])
		}
		delete(fromHook, outcome)
	}
	for outcome, n := range fromHook {
		t.Errorf("outcome %s: hook %d, counters 0", outcome, n)
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
// concurrency proof for the verdict hook, the snapshot fan-out and the
// flights.
func runSoak(t *testing.T, opts Options, mode monitor.Mode) *Deployment {
	t.Helper()
	clients, requests := 32, 4000
	if testing.Short() {
		requests = 1200
	}
	sink := &verdictSink{}
	opts.Monitor.Mode = mode
	opts.Monitor.OnVerdict = sink.add
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
	log := sink.all()
	if len(log) == 0 {
		t.Fatal("no verdicts recorded")
	}
	checkVerdictInvariants(t, log, mode, opts.Monitor.FailPolicy)
	checkCountsMatch(t, dep, log)
	return dep
}

// TestSoakEnforce is the satellite -race soak: 32 concurrent clients, all
// verdict classes, serial snapshots.
func TestSoakEnforce(t *testing.T) {
	runSoak(t, Options{}, monitor.Enforce)
}

// TestSoakObserve repeats the soak in Observe (test-oracle) mode.
func TestSoakObserve(t *testing.T) {
	runSoak(t, Options{}, monitor.Observe)
}

// TestSoakAsyncPost is the async-pipeline concurrency soak: 32 clients,
// deferred post verification under the block policy. Run under -race this
// proves the capture hand-off, the write fence, the worker pool and the
// pending accounting against the full mixed matrix; the drain guarantee
// is checked by the counter cross-check in runSoak (Run drains before
// diffing).
func TestSoakAsyncPost(t *testing.T) {
	dep := runSoak(t, Options{Monitor: core.Options{Post: monitor.PostAsync}}, monitor.Enforce)
	defer dep.Close()
	st := dep.Instances[0].Sys.Monitor.AsyncPostStats()
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

// chaosOpts returns deployment options under the checked-in ~20% mixed-fault
// profile, with a cloud deadline so every read attempt and forward runs
// under one, as in a deployment that sets -cloud-timeout.
func chaosOpts(t *testing.T, policy monitor.FailPolicy) Options {
	t.Helper()
	profile, err := faults.LoadProfile("../faults/testdata/chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Monitor: core.Options{
			FailPolicy:   policy,
			CloudTimeout: 500 * time.Millisecond,
		},
		Faults: profile,
	}
}

// TestSoakChaosFailClosed is the acceptance soak: ~20% of cloud calls fail
// while a fail-closed monitor takes the full mixed matrix. The invariant
// sweep proves no request whose pre-state snapshot failed was forwarded
// and no Unverified verdict exists; the counter cross-check proves the
// hook still sees every counted verdict once under chaos.
func TestSoakChaosFailClosed(t *testing.T) {
	dep := runSoak(t, chaosOpts(t, monitor.FailClosed), monitor.Enforce)
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("chaos soak injected no faults; the profile is not wired in")
	}
	if n := dep.Instances[0].Sys.Monitor.Outcomes()[monitor.Unverified]; n != 0 {
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
	opts.Monitor.Post = monitor.PostAsync
	dep := runSoak(t, opts, monitor.Enforce)
	defer dep.Close()
	if dep.Injector == nil || dep.Injector.Total() == 0 {
		t.Fatal("chaos soak injected no faults; the profile is not wired in")
	}
	if st := dep.Instances[0].Sys.Monitor.AsyncPostStats(); st.Enqueued == 0 || st.Pending != 0 {
		t.Fatalf("async stats after chaos soak: %+v", st)
	}
}

// TestSoakChaosAsyncShed saturates a one-slot queue with one worker under
// chaos and the shed policy: every rejected capture must surface as a
// shed Unverified verdict — the only Unverified a fail-closed monitor may
// record — and the counts must agree exactly.
func TestSoakChaosAsyncShed(t *testing.T) {
	opts := chaosOpts(t, monitor.FailClosed)
	opts.Monitor.Post = monitor.PostAsync
	opts.Monitor.PostQueueCap = 1
	opts.Monitor.PostWorkers = 1
	opts.Monitor.PostBackpressure = monitor.BackpressureShed
	dep := runSoak(t, opts, monitor.Enforce)
	defer dep.Close()
	mon := dep.Instances[0].Sys.Monitor
	st := mon.AsyncPostStats()
	if st.Shed == 0 {
		t.Fatal("one-slot queue under 32 clients shed nothing")
	}
	if got := mon.Outcomes()[monitor.Unverified]; got != int(st.Shed) {
		t.Fatalf("Unverified verdicts %d, shed counter %d", got, st.Shed)
	}
}
