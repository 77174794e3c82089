package monitor

import (
	"fmt"
	"os"
	"strings"
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

// newAsyncMonitor builds a monitor with the async post pipeline and the
// given knobs over the standard test routes.
func newAsyncMonitor(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	cfg.Post = PostAsync
	if cfg.Mode == 0 {
		cfg.Mode = Enforce
	}
	m := newPolicyMonitor(t, cfg)
	t.Cleanup(m.Close)
	return m
}

// TestAsyncBackpressureMatrix crosses both backpressure policies with both
// fail policies under a saturated queue: capacity one, one worker,
// and a post-phase read slow enough that a serial burst outruns it. The
// invariants per cell: exactly one verdict per request; under shed every
// rejected capture becomes an audited Unverified verdict tagged shed=true
// (counted, never silently dropped); under block nothing is shed or
// dropped and verdicts land in response order.
func TestAsyncBackpressureMatrix(t *testing.T) {
	const burst = 8
	policies := []BackpressurePolicy{BackpressureBlock, BackpressureShed}
	failPolicies := []FailPolicy{FailClosed, FailOpen}
	for _, bp := range policies {
		for _, fp := range failPolicies {
			t.Run(fmt.Sprintf("%s/%s", bp, fp), func(t *testing.T) {
				dir := t.TempDir()
				audit, err := obs.OpenAuditLog(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer audit.Close()
				e := env(1, 10, "available", "admin")
				cfg := Config{
					Provider:         &slowPostProvider{pre: e, post: e, delay: 3 * time.Millisecond},
					Forward:          &fakeForwarder{status: 200},
					FailPolicy:       fp,
					PostQueueCap:     1,
					PostWorkers:      1,
					PostBackpressure: bp,
					Audit:            audit,
				}
				m := newAsyncMonitor(t, cfg)
				for i := 0; i < burst; i++ {
					if rec := doGet(t, m); rec.Code != 200 {
						t.Fatalf("request %d: status %d, want 200", i, rec.Code)
					}
				}
				m.DrainPost()
				st := m.AsyncPostStats()
				outcomes := m.Outcomes()
				total := 0
				for _, n := range outcomes {
					total += n
				}
				if total != burst {
					t.Fatalf("recorded %d verdicts for %d requests: %v", total, burst, outcomes)
				}
				if st.Pending != 0 {
					t.Fatalf("pending %d after drain", st.Pending)
				}
				switch bp {
				case BackpressureShed:
					if st.Shed == 0 {
						t.Fatal("saturated queue shed nothing")
					}
					if got := outcomes[Unverified]; got != int(st.Shed) {
						t.Fatalf("Unverified verdicts %d, shed counter %d", got, st.Shed)
					}
					shedRecs := 0
					res, err := obs.ReadAuditDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range res.Records {
						if rec.Shed {
							shedRecs++
							if rec.Outcome != Unverified.String() {
								t.Errorf("shed audit record outcome %q, want unverified", rec.Outcome)
							}
							if !rec.Late {
								t.Error("shed audit record not tagged late")
							}
						}
					}
					if shedRecs != int(st.Shed) {
						t.Fatalf("audit has %d shed records, counter says %d", shedRecs, st.Shed)
					}
				case BackpressureBlock:
					if st.Shed != 0 {
						t.Fatalf("block policy shed %d captures", st.Shed)
					}
					if got := outcomes[OK]; got != burst {
						t.Fatalf("block policy verified %d of %d: %v", got, burst, outcomes)
					}
					if st.Lag.Count != uint64(burst) {
						t.Fatalf("lag histogram holds %d samples, want %d", st.Lag.Count, burst)
					}
					// One worker drains FIFO: verdicts must land in the order
					// the responses returned — block never reorders.
					var last time.Time
					for i, v := range m.Log() {
						if !v.Late {
							t.Fatalf("verdict %d not late under async", i)
						}
						if v.Returned.Before(last) {
							t.Fatalf("verdict %d recorded out of response order", i)
						}
						last = v.Returned
					}
				}
			})
		}
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
	m := newAsyncMonitor(t, Config{
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
	v := lastVerdict(t, m)
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
	m := newAsyncMonitor(t, Config{
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
	m2 := newAsyncMonitor(t, Config{
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
