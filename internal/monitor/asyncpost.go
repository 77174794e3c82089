package monitor

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/obs"
)

// PostMode selects when post-condition verification runs relative to the
// response path.
type PostMode int

// Post-verification modes.
const (
	// PostSync (the default) verifies the post-condition before the
	// response returns — the paper's workflow: the client never sees an
	// answer the monitor has not fully judged.
	PostSync PostMode = iota + 1
	// PostAsync returns the cloud response as soon as the forward
	// completes and runs post-condition evaluation on a bounded queue of
	// captured (pre-state, effect-frame, response) records drained by a
	// worker pool. Violations surface late — tagged late=true in the
	// audit trail with a detection-lag histogram — trading detection
	// latency for response-path throughput (the monitorability spectrum).
	PostAsync
)

// String returns the mode name.
func (p PostMode) String() string {
	switch p {
	case PostSync:
		return "sync"
	case PostAsync:
		return "async"
	}
	return fmt.Sprintf("PostMode(%d)", int(p))
}

// ParsePostMode parses a -post flag value.
func ParsePostMode(s string) (PostMode, error) {
	switch s {
	case "sync":
		return PostSync, nil
	case "async":
		return PostAsync, nil
	}
	return 0, fmt.Errorf("monitor: unknown post mode %q (sync|async)", s)
}

// BackpressurePolicy decides what a saturated async post queue does to the
// response path, mirroring FailPolicy's stance on unverifiable requests.
type BackpressurePolicy int

// Backpressure policies.
const (
	// BackpressureBlock (the default) applies backpressure: the enqueue
	// waits for a queue slot, so every forwarded effect is eventually
	// verified and records are never dropped or reordered against their
	// responses. Detection lag is bounded by queue capacity × service
	// time; response latency degrades under sustained overload.
	BackpressureBlock BackpressurePolicy = iota + 1
	// BackpressureShed keeps the response path non-blocking: when the
	// queue is full the request's post phase is abandoned and an
	// Unverified verdict is recorded — counted and audited (shed=true),
	// never silently dropped.
	BackpressureShed
)

// String returns the policy name.
func (b BackpressurePolicy) String() string {
	switch b {
	case BackpressureBlock:
		return "block"
	case BackpressureShed:
		return "shed"
	}
	return fmt.Sprintf("BackpressurePolicy(%d)", int(b))
}

// ParseBackpressure parses a -post-backpressure flag value.
func ParseBackpressure(s string) (BackpressurePolicy, error) {
	switch s {
	case "block":
		return BackpressureBlock, nil
	case "shed":
		return BackpressureShed, nil
	}
	return 0, fmt.Errorf("monitor: unknown backpressure policy %q (block|shed)", s)
}

// asyncPost is the bounded post-verification pipeline: a channel of
// captured records drained by a fixed worker pool. Lifecycle: ServeHTTP
// enqueues before the response is written, workers run the identical
// post-evaluation the synchronous path uses (postVerify), and every
// capture ends as exactly one recorded verdict — verified, or shed as
// Unverified by the caller when the queue is saturated under the shed
// policy.
type asyncPost struct {
	queue chan *postCapture
	wg    sync.WaitGroup
	// mu guards enqueue against close: senders hold the read lock, Close
	// takes the write lock before closing the channel, so a send can
	// never race the close. The response path already crosses locks in
	// record(); one more uncontended RLock is off the evaluation hot path.
	mu     sync.RWMutex
	closed atomic.Bool
	// pending counts captures created but not yet recorded. It is
	// incremented the moment check defers a verdict — before the
	// response is written — so the write fence and DrainPost see every
	// outstanding capture, and decremented only after the verdict (verified
	// or shed) is in the log, the counters and the audit trail.
	pending atomic.Int64

	enqueued   obs.Counter
	shed       obs.Counter
	lateViol   obs.Counter
	fenceWaits obs.Counter
	lag        *obs.Histogram
}

func newAsyncPost(m *Monitor, capacity, workers int) *asyncPost {
	ap := &asyncPost{
		queue: make(chan *postCapture, capacity),
		lag:   obs.NewDurationHistogram(),
	}
	for i := 0; i < workers; i++ {
		ap.wg.Add(1)
		go func() {
			defer ap.wg.Done()
			for pc := range ap.queue {
				m.completePost(pc)
			}
		}()
	}
	return ap
}

// enqueue hands a capture to the worker pool. Under the block policy the
// send waits for a slot; under shed it fails fast when the queue is full.
// Returns false when the capture was not accepted (full queue under shed,
// or the monitor is closing) — the caller must then record the capture as
// a shed Unverified verdict so no request ever goes unaccounted.
func (ap *asyncPost) enqueue(pc *postCapture, policy BackpressurePolicy) bool {
	ap.mu.RLock()
	defer ap.mu.RUnlock()
	if ap.closed.Load() {
		return false
	}
	if policy == BackpressureShed {
		select {
		case ap.queue <- pc:
		default:
			return false
		}
	} else {
		ap.queue <- pc
	}
	ap.enqueued.Inc()
	return true
}

// fenceWrites blocks a mutating forward until every pending deferred post
// check has completed. Deferred checks read the cloud's post-state after
// the response returns; letting the next write land first would hand them
// interfered state and fabricate violations the synchronous path never
// sees. The fence restores the synchronous ordering exactly where it
// matters — reads stream through unfenced, and a write's wait overlaps the
// pending captures' fetches, which started at the previous response — so
// serial workloads get verdict-for-verdict equivalence by construction.
func (m *Monitor) fenceWrites(method string) {
	ap := m.asyncPost
	if ap == nil || method == http.MethodGet || method == http.MethodHead {
		return
	}
	if ap.pending.Load() == 0 {
		return
	}
	ap.fenceWaits.Inc()
	for ap.pending.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// completePost runs the deferred post phase for one capture and records
// the request's single, complete verdict. The evaluation is byte-for-byte
// the synchronous path's (postVerify, over the frame the pre phase
// filled); only the timestamps differ: the verdict carries both when the
// response returned and how long detection lagged behind it, so stage
// timings and audit summaries stay monotonic.
func (m *Monitor) completePost(pc *postCapture) {
	v := m.postVerify(pc, &pc.trace)
	v.Late = true
	v.Returned = pc.returned
	v.DetectionLag = time.Since(pc.returned)
	m.asyncPost.lag.Observe(v.DetectionLag)
	if v.Outcome.IsViolation() {
		m.asyncPost.lateViol.Inc()
	}
	v.Trace = pc.trace
	m.record(v)
	// Decrement after record: DrainPost returning means every verdict is
	// in the log, the counters and the audit trail.
	m.asyncPost.pending.Add(-1)
}

// shedVerdict finalizes a capture the queue did not accept: the post phase
// is abandoned, the capture's frame is released, and the request is
// recorded as Unverified — the same "forwarded but unchecked" outcome a
// fail-open snapshot failure yields — tagged Shed so audits can tell
// saturation from fault-policy decisions.
func (m *Monitor) shedVerdict(pc *postCapture) {
	pc.release()
	m.asyncPost.shed.Inc()
	v := pc.v
	v.Outcome = Unverified
	v.Detail = "post-verification shed: async queue full"
	v.Late = true
	v.Shed = true
	v.Returned = pc.returned
	v.Elapsed = time.Since(pc.start)
	v.FetchedPaths = pc.f.fetched
	pc.trace[obs.StagePreSnapshot] = pc.f.preDur
	pc.trace[obs.StagePreEval] = pc.preEvalDur
	v.Trace = pc.trace
	m.record(v)
	m.asyncPost.pending.Add(-1)
}

// DrainPost blocks until every enqueued capture has been verified and
// recorded. Non-destructive: the workers stay up and the monitor keeps
// accepting requests — load harnesses call it before diffing counters.
func (m *Monitor) DrainPost() {
	ap := m.asyncPost
	if ap == nil {
		return
	}
	for ap.pending.Load() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// Close gracefully shuts the async post pipeline down: no new captures are
// accepted (late arrivals shed), the queue is drained, and every worker
// exits. Safe to call more than once; a synchronous monitor is a no-op.
func (m *Monitor) Close() {
	ap := m.asyncPost
	if ap == nil || !ap.closed.CompareAndSwap(false, true) {
		return
	}
	// The write lock waits out in-flight enqueues (their sends complete —
	// the workers are still draining), then the close ends the workers'
	// range loops once the queue empties.
	ap.mu.Lock()
	close(ap.queue)
	ap.mu.Unlock()
	ap.wg.Wait()
}

// AsyncPostStats are the async pipeline's counters and lag distribution.
type AsyncPostStats struct {
	// Enqueued counts captures accepted onto the queue.
	Enqueued uint64 `json:"enqueued"`
	// Shed counts captures rejected by a saturated queue under the shed
	// policy; each one is an Unverified verdict with an audit record.
	Shed uint64 `json:"shed"`
	// LateViolations counts violations detected after the response
	// returned.
	LateViolations uint64 `json:"late_violations"`
	// FenceWaits counts mutating forwards that waited on the write fence
	// for pending deferred checks to complete.
	FenceWaits uint64 `json:"fence_waits"`
	// Pending is the current queue backlog (enqueued, not yet recorded).
	Pending int64 `json:"pending"`
	// Lag is the detection-lag distribution (verdict time − response
	// return time).
	Lag obs.HistSnapshot `json:"lag"`
}

// AsyncPostStats returns the async post pipeline's counters (zero when
// the monitor verifies synchronously).
func (m *Monitor) AsyncPostStats() AsyncPostStats {
	ap := m.asyncPost
	if ap == nil {
		return AsyncPostStats{}
	}
	return AsyncPostStats{
		Enqueued:       ap.enqueued.Value(),
		Shed:           ap.shed.Value(),
		LateViolations: ap.lateViol.Value(),
		FenceWaits:     ap.fenceWaits.Value(),
		Pending:        ap.pending.Load(),
		Lag:            ap.lag.Snapshot(),
	}
}
