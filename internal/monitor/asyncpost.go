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

// The async pipeline's shape: a queue of postQueueCap captures drained
// by postWorkers workers. A full queue blocks the enqueuing request until
// a worker takes a capture, so the response path feels the backpressure
// and nothing is dropped or reordered.
const (
	postQueueCap = 1024
	postWorkers  = 4
)

// asyncPost is the bounded post-verification pipeline: a channel of
// captured records drained by a fixed worker pool. Lifecycle: ServeHTTP
// enqueues before the response is written, workers run the identical
// post-evaluation the synchronous path uses (postVerify), and every
// capture ends as exactly one recorded verdict — verified by a worker,
// or, once the pipeline is closed, on the request's own goroutine.
type asyncPost struct {
	queue chan *postCapture
	wg    sync.WaitGroup
	// mu guards enqueue against close: senders hold the read lock, Close
	// takes the write lock before closing the channel, so a send can
	// never race the close. One uncontended RLock is off the evaluation
	// hot path.
	mu     sync.RWMutex
	closed atomic.Bool
	// pending counts captures created but not yet recorded. It is
	// incremented the moment check defers a verdict — before the
	// response is written — so the write fence and DrainPost see every
	// outstanding capture, and decremented only after its verdict is in
	// the counters, the audit trail and the OnVerdict hook.
	pending atomic.Int64
	// idle is broadcast, under idleMu, each time pending drops to zero:
	// the write fence and DrainPost wait on it.
	idleMu sync.Mutex
	idle   sync.Cond

	enqueued   obs.Counter
	lateViol   obs.Counter
	fenceWaits obs.Counter
	lag        *obs.Histogram
}

func newAsyncPost(m *Monitor, capacity, workers int) *asyncPost {
	ap := &asyncPost{
		queue: make(chan *postCapture, capacity),
		lag:   obs.NewDurationHistogram(),
	}
	ap.idle.L = &ap.idleMu
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

// enqueue hands a capture to the worker pool, waiting for a slot when the
// queue is full. It returns false, having taken nothing, once the pipeline
// is closed: the caller then verifies the capture itself (completePost),
// so no request goes unverified.
func (ap *asyncPost) enqueue(pc *postCapture) bool {
	ap.mu.RLock()
	defer ap.mu.RUnlock()
	if ap.closed.Load() {
		return false
	}
	ap.queue <- pc
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
// The last pending verdict wakes the waiting writes.
func (m *Monitor) fenceWrites(method string) {
	ap := m.asyncPost
	if ap == nil || method == http.MethodGet || method == http.MethodHead {
		return
	}
	if ap.pending.Load() == 0 {
		return
	}
	ap.fenceWaits.Inc()
	ap.waitIdle()
}

// waitIdle blocks until no capture is pending.
func (ap *asyncPost) waitIdle() {
	ap.idleMu.Lock()
	defer ap.idleMu.Unlock()
	for ap.pending.Load() != 0 {
		ap.idle.Wait()
	}
}

// settle ends one capture whose verdict is recorded, and wakes the
// waiters when it was the last one pending. The broadcast takes idleMu,
// so it cannot fall between a waiter's check of pending and its Wait.
func (ap *asyncPost) settle() {
	if ap.pending.Add(-1) != 0 {
		return
	}
	ap.idleMu.Lock()
	ap.idle.Broadcast()
	ap.idleMu.Unlock()
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
	// Settle after record: DrainPost returning means every verdict is in
	// the counters, the audit trail and the OnVerdict hook.
	m.asyncPost.settle()
}

// DrainPost blocks until every enqueued capture has been verified and
// recorded. Non-destructive: the workers stay up and the monitor keeps
// accepting requests — load harnesses call it before diffing counters.
func (m *Monitor) DrainPost() {
	ap := m.asyncPost
	if ap == nil || ap.pending.Load() == 0 {
		return
	}
	ap.waitIdle()
}

// Close gracefully shuts the async post pipeline down: the queue takes no
// new captures, what it holds is drained, and every worker exits. A
// capture that arrives later is verified on its request's goroutine, after
// the response is written. Safe to call more than once; a synchronous
// monitor is a no-op.
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
	// Shed is always 0: a full queue blocks, and no capture is dropped.
	// The field stays only because the end-to-end benchmark under bench/
	// still reads it.
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
		LateViolations: ap.lateViol.Value(),
		FenceWaits:     ap.fenceWaits.Value(),
		Pending:        ap.pending.Load(),
		Lag:            ap.lag.Snapshot(),
	}
}
