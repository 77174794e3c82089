package monitor

import (
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// slowPostProvider serves the pre-state instantly and delays every
// post-phase read — the shape of a cloud whose reads are slow enough that
// the async queue saturates under a fast request stream.
type slowPostProvider struct {
	pre, post ocl.MapEnv
	delay     time.Duration
}

func (p *slowPostProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	src := p.pre
	if ctx.Phase == PhasePost {
		time.Sleep(p.delay)
		src = p.post
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := src[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// newAsyncMonitor builds a monitor with the async post pipeline over the
// standard test routes.
func newAsyncMonitor(t *testing.T, cfg Config) (*Monitor, *verdictSink) {
	t.Helper()
	cfg.Post = PostAsync
	if cfg.Mode == 0 {
		cfg.Mode = Enforce
	}
	m, sink := newPolicyMonitor(t, cfg)
	t.Cleanup(m.Close)
	return m, sink
}

// newSaturatedMonitor builds an async monitor over the standard test
// routes whose pipeline is a one-slot queue drained by one worker, so a
// serial burst outruns it: every enqueue past the second waits for the
// worker to take the capture ahead of it.
func newSaturatedMonitor(t *testing.T, cfg Config) (*Monitor, *verdictSink) {
	t.Helper()
	cfg.Mode = Enforce
	m, sink := newPolicyMonitor(t, cfg)
	m.post = PostAsync
	m.asyncPost = newAsyncPost(m, 1, 1)
	t.Cleanup(m.Close)
	return m, sink
}

// TestAsyncBackpressureMatrix runs both fail policies under a saturated
// queue: capacity one, one worker, and a post-phase read slow enough that
// a serial burst outruns it. A full queue blocks the request until the
// worker frees the slot, so per cell: the burst's responses wait out the
// post reads ahead of them, every request gets exactly one verdict, OK
// and verified (none Unverified), and verdicts land in response order.
func TestAsyncBackpressureMatrix(t *testing.T) {
	const (
		burst = 8
		delay = 3 * time.Millisecond
	)
	for _, fp := range []FailPolicy{FailClosed, FailOpen} {
		t.Run("block/"+fp.String(), func(t *testing.T) {
			e := env(1, 10, "available", "admin")
			m, sink := newSaturatedMonitor(t, Config{
				Provider:   &slowPostProvider{pre: e, post: e, delay: delay},
				Forward:    &fakeForwarder{status: 200},
				FailPolicy: fp,
			})
			start := time.Now()
			for i := 0; i < burst; i++ {
				if rec := doGet(t, m); rec.Code != 200 {
					t.Fatalf("request %d: status %d, want 200", i, rec.Code)
				}
			}
			// The worker holds one capture and the slot another; each
			// later enqueue waits for the worker to finish a post read.
			if took := time.Since(start); took < (burst-2)*delay {
				t.Fatalf("burst answered in %v, under the %v its post reads hold a full queue", took, (burst-2)*delay)
			}
			m.DrainPost()
			st := m.AsyncPostStats()
			if outcomes := m.Outcomes(); outcomes[OK] != burst || len(outcomes) != 1 {
				t.Fatalf("outcomes %v, want %d OK and nothing else", outcomes, burst)
			}
			if st.Enqueued != burst || st.Pending != 0 || st.Lag.Count != burst {
				t.Fatalf("stats %+v, want %d enqueued and lag samples, none pending", st, burst)
			}
			// One worker drains FIFO: verdicts must land in the order the
			// responses returned.
			verdicts := sink.all()
			if len(verdicts) != burst {
				t.Fatalf("hook saw %d verdicts, want %d", len(verdicts), burst)
			}
			var last time.Time
			for i, v := range verdicts {
				if !v.Late || !v.PostOK || v.Shed {
					t.Fatalf("verdict %d: Late=%v PostOK=%v Shed=%v, want a verified late verdict", i, v.Late, v.PostOK, v.Shed)
				}
				if v.Returned.Before(last) {
					t.Fatalf("verdict %d recorded out of response order", i)
				}
				last = v.Returned
			}
		})
	}
}

// TestAsyncCaptureAfterCloseIsVerified: a request that reaches a closed
// pipeline still gets the cloud's answer and exactly one late verdict,
// verified on the request's own goroutine: a correct DELETE is OK, and a
// DELETE the cloud did not apply is the postcondition violation.
func TestAsyncCaptureAfterCloseIsVerified(t *testing.T) {
	for _, tc := range []struct {
		name string
		post ocl.MapEnv
		want Outcome
	}{
		{"applied", env(1, 10, "available", "admin"), OK},
		{"not applied", env(2, 10, "available", "admin"), ViolationPostcondition},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, sink := newAsyncMonitor(t, Config{
				Provider: &fakeProvider{pre: env(2, 10, "available", "admin"), post: tc.post},
				Forward:  &fakeForwarder{status: 204},
			})
			m.Close()
			if rec := doDelete(t, m); rec.Code != 204 {
				t.Fatalf("DELETE after Close: status %d, want the backend's 204", rec.Code)
			}
			verdicts := sink.all()
			if len(verdicts) != 1 {
				t.Fatalf("%d verdicts once the handler returned, want 1", len(verdicts))
			}
			v := verdicts[0]
			if v.Outcome != tc.want || !v.Late || v.Shed {
				t.Fatalf("verdict %s (Late=%v Shed=%v), want a late %s", v.Outcome, v.Late, v.Shed, tc.want)
			}
			if v.Returned.IsZero() || v.DetectionLag < 0 {
				t.Fatalf("Returned %v, DetectionLag %v", v.Returned, v.DetectionLag)
			}
			if st := m.AsyncPostStats(); st.Enqueued != 0 || st.Pending != 0 || st.Lag.Count != 1 {
				t.Fatalf("stats %+v, want nothing enqueued or pending and one lag sample", st)
			}
		})
	}
}

// TestAsyncLateVerdictTimestamps is the regression test for the
// two-timestamp fix: a late verdict must carry both when its response
// returned and a non-negative detection lag, the lag must be in the
// histogram, and the audit record's times must stay monotonic
// (verdict time ≥ response-return time) so stage summaries never go
// negative.
func TestAsyncLateVerdictTimestamps(t *testing.T) {
	dir := t.TempDir()
	audit, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	// Post-state unchanged after a DELETE: a postcondition violation the
	// worker detects after the 204 already went out.
	m, sink := newAsyncMonitor(t, Config{
		Provider: &fakeProvider{pre: env(2, 10, "available", "admin"), post: env(2, 10, "available", "admin")},
		Forward:  &fakeForwarder{status: 204},
		Audit:    audit,
	})
	before := time.Now()
	rec := doDelete(t, m)
	if rec.Code != 204 {
		t.Fatalf("async client must see the backend answer, got %d", rec.Code)
	}
	m.DrainPost()
	v := sink.last(t)
	if v.Outcome != ViolationPostcondition {
		t.Fatalf("outcome = %s, want violation:postcondition", v.Outcome)
	}
	if !v.Late || v.Shed {
		t.Fatalf("late verdict flags: Late=%v Shed=%v", v.Late, v.Shed)
	}
	if v.Returned.Before(before) {
		t.Fatalf("Returned %v predates the request", v.Returned)
	}
	if v.DetectionLag < 0 {
		t.Fatalf("DetectionLag = %v, want >= 0", v.DetectionLag)
	}
	st := m.AsyncPostStats()
	if st.Enqueued != 1 || st.LateViolations != 1 || st.Lag.Count != 1 {
		t.Fatalf("stats = %+v, want 1 enqueued, 1 late violation, 1 lag sample", st)
	}
	audit.Sync()
	res, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("audit has %d records, want 1", len(res.Records))
	}
	ar := res.Records[0]
	if !ar.Late || ar.Shed {
		t.Fatalf("audit flags: late=%v shed=%v", ar.Late, ar.Shed)
	}
	if ar.ReturnUnixNano <= 0 || ar.LagNanos < 0 {
		t.Fatalf("audit timestamps: return=%d lag=%d", ar.ReturnUnixNano, ar.LagNanos)
	}
	if ar.Time < ar.ReturnUnixNano {
		t.Fatalf("verdict time %d predates response return %d", ar.Time, ar.ReturnUnixNano)
	}
}

// TestAsyncCrashMidDrainAudit simulates a crash while the worker pool was
// draining late verdicts into the audit trail: the segment's tail record
// is torn. The reader must keep every whole record, the verifier must
// flag exactly the torn tail, and a reopened trail must resume the chain
// without ever double-writing a late verdict.
func TestAsyncCrashMidDrainAudit(t *testing.T) {
	dir := t.TempDir()
	audit, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := env(2, 10, "available", "admin")
	m, _ := newAsyncMonitor(t, Config{
		Provider: &fakeProvider{pre: e, post: e},
		Forward:  &fakeForwarder{status: 204},
		Audit:    audit,
	})
	const n = 4
	for i := 0; i < n; i++ {
		doDelete(t, m)
	}
	m.DrainPost()
	m.Close()
	audit.Close()

	segments, err := obs.AuditSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segments[len(segments)-1].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The crash lands mid-write of the final late verdict.
	cut := len(data) - 1 - len(data)/(2*n)
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != n-1 || len(res.Torn) != 1 {
		t.Fatalf("after crash: %d whole, %d torn; want %d whole, 1 torn",
			len(res.Records), len(res.Torn), n-1)
	}
	ver, err := obs.VerifyAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ver.OK() {
		t.Fatal("verifier passed a torn chain")
	}
	torn := false
	for _, p := range ver.Problems {
		if strings.Contains(p, "torn final record") {
			torn = true
		}
	}
	if !torn {
		t.Fatalf("problems = %v, want exactly the torn tail", ver.Problems)
	}

	// Reopen and drain one more late verdict through a fresh monitor: the
	// chain resumes after the last whole record in a new segment, and no
	// seq appears twice — the crash cannot double-write a verdict.
	audit2, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := newAsyncMonitor(t, Config{
		Provider: &fakeProvider{pre: e, post: e},
		Forward:  &fakeForwarder{status: 204},
		Audit:    audit2,
	})
	doDelete(t, m2)
	m2.DrainPost()
	m2.Close()
	audit2.Close()

	res2, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, rec := range res2.Records {
		if seen[rec.Seq] {
			t.Fatalf("seq %d written twice after reopen", rec.Seq)
		}
		seen[rec.Seq] = true
	}
	last := res2.Records[len(res2.Records)-1]
	if last.Seq != uint64(n) {
		t.Fatalf("resumed seq = %d, want %d (after %d whole records)", last.Seq, n, n-1)
	}
	if len(res2.Segments) != 2 {
		t.Fatalf("crash recovery must open a fresh segment, got %d", len(res2.Segments))
	}
}

// eventLog records, in order, the verdicts a monitor lands and the
// requests it forwards.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// Forward implements Forwarder, logging the method.
func (l *eventLog) Forward(r *http.Request, _ *Route, _ map[string]string) (*BackendResponse, error) {
	l.add("forward " + r.Method)
	status := http.StatusOK
	if r.Method == http.MethodDelete {
		status = http.StatusNoContent
	}
	return &BackendResponse{StatusCode: status, Header: http.Header{}, Body: []byte("{}")}, nil
}

// TestFenceHoldsWriteUntilPendingVerdict: a write that arrives while a
// read's deferred post check is pending waits at the fence. It is not
// forwarded while that check's post read is held, and it is forwarded
// once the check's verdict is recorded — after it, never before.
func TestFenceHoldsWriteUntilPendingVerdict(t *testing.T) {
	log := &eventLog{}
	p := &gatedPostProvider{env: env(1, 10, "available", "admin"), gate: make(chan struct{})}
	m, _ := newAsyncMonitor(t, Config{Provider: p, Forward: log})
	// Runs before the monitor's Close, so a failing test does not leave
	// the workers held.
	release := sync.OnceFunc(func() { close(p.gate) })
	t.Cleanup(release)
	// The verdict hook is the test's: it logs each verdict as it lands.
	m.onVerdict = func(v Verdict) { log.add("verdict " + string(v.Trigger.Method)) }

	if rec := doGet(t, m); rec.Code != http.StatusOK {
		t.Fatalf("GET: status %d, want 200", rec.Code)
	}
	done := make(chan int)
	go func() { done <- doDelete(t, m).Code }()
	for deadline := time.Now().Add(10 * time.Second); m.AsyncPostStats().FenceWaits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the DELETE never reached the write fence")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if got := log.snapshot(); !reflect.DeepEqual(got, []string{"forward GET"}) {
		t.Fatalf("events with the GET's post read held: %q, want only the GET forwarded", got)
	}
	release()
	if code := <-done; code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", code)
	}
	m.DrainPost()
	want := []string{"forward GET", "verdict GET", "forward DELETE", "verdict DELETE"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
}

// TestFenceDrainPostWaitsForLastVerdict: DrainPost returns only once the
// last pending capture's verdict is recorded, not while any post read is
// still held.
func TestFenceDrainPostWaitsForLastVerdict(t *testing.T) {
	const reads = 5
	p := &gatedPostProvider{env: env(1, 10, "available", "admin"), gate: make(chan struct{})}
	m, sink := newAsyncMonitor(t, Config{Provider: p, Forward: okForwarder{}})
	release := sync.OnceFunc(func() { close(p.gate) })
	t.Cleanup(release)
	for i := 0; i < reads; i++ {
		if rec := doGet(t, m); rec.Code != http.StatusOK {
			t.Fatalf("GET %d: status %d, want 200", i, rec.Code)
		}
	}
	drained := make(chan int)
	go func() {
		m.DrainPost()
		drained <- len(sink.all())
	}()
	select {
	case n := <-drained:
		t.Fatalf("DrainPost returned with every post read held (%d verdicts)", n)
	case <-time.After(2 * time.Millisecond):
	}
	release()
	if n := <-drained; n != reads {
		t.Fatalf("DrainPost returned with %d of %d verdicts recorded", n, reads)
	}
	if st := m.AsyncPostStats(); st.Pending != 0 {
		t.Fatalf("pending %d after DrainPost", st.Pending)
	}
}
