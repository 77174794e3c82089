package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Audit record schema identity. Every record the log writes is stamped
// with these, so a pack consumer can tell exactly which shape it is
// parsing; records without a schema_id predate the stamp and are
// tolerated (and flagged) as legacy.
const (
	AuditSchemaID      = "cloudmon.audit.record"
	AuditSchemaVersion = "1.0.0"
)

// AuditRecord is one line of the audit trail: a monitored request whose
// verdict was not a clean pass, traced back to the security requirements
// the violated (or unverifiable) contract protects. The record carries
// everything an auditor needs without the monitor process: the SecReq
// IDs, the failing contract clause, the pre/post state the verdict was
// computed from, and the per-stage timings.
type AuditRecord struct {
	// SchemaID and SchemaVersion identify the record shape
	// (AuditSchemaID/AuditSchemaVersion, stamped by Append). Empty on
	// legacy records written before stamping existed.
	SchemaID      string `json:"schema_id,omitempty"`
	SchemaVersion string `json:"schema_version,omitempty"`
	// Instance identifies the monitor instance that produced the record
	// (monitor.Config.InstanceID). Empty outside fleet deployments; the
	// field is additive, so single-instance trails and their packs are
	// byte-compatible with earlier readers.
	Instance string `json:"instance,omitempty"`
	// Seq is the chain sequence number, assigned by the log. Contiguous
	// within and across segments; auditctl verify checks the chain.
	Seq uint64 `json:"seq"`
	// Time is the record time in nanoseconds since the Unix epoch.
	Time int64 `json:"time_unix_nano"`
	// Trigger identifies the contract, e.g. "DELETE volume".
	Trigger string `json:"trigger"`
	// Method and Resource split the trigger for filtering.
	Method   string `json:"method"`
	Resource string `json:"resource"`
	// Outcome is the verdict class (blocked, rejected, violation:*,
	// error, unverified).
	Outcome string `json:"outcome"`
	// SecReqs are the security requirements the contract protects.
	SecReqs []string `json:"sec_reqs,omitempty"`
	// MatchedSecReqs are the requirements whose transition case matched.
	MatchedSecReqs []string `json:"matched_sec_reqs,omitempty"`
	// FailingClause is the contract clause that decided the verdict (the
	// pre-condition for blocked/rejected/forbidden-accepted, the
	// post-condition for effect violations).
	FailingClause string `json:"failing_clause,omitempty"`
	// ContractDigest binds the verdict to the exact contract version that
	// produced it (contract.Contract.Digest): replay refuses to compare a
	// verdict against a different contract than the one that decided it.
	ContractDigest string `json:"contract_digest,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail,omitempty"`
	// BackendStatus is the cloud's response code (0 when not forwarded).
	BackendStatus int `json:"backend_status,omitempty"`
	// DegradedPre marked a pre-state served from a stale pre-state cache,
	// which the monitor no longer has. New records never set it; it stays
	// so trails written with it still read, verify and replay.
	DegradedPre bool `json:"degraded_pre,omitempty"`
	// Pre and Post are the state snapshots (OCL literal syntax).
	Pre  map[string]string `json:"pre,omitempty"`
	Post map[string]string `json:"post,omitempty"`
	// StageNanos are the per-stage trace timings.
	StageNanos map[string]int64 `json:"stage_nanos,omitempty"`
	// Late marks a verdict whose post phase ran after the response
	// returned (async post-verification); Shed marks a late verdict whose
	// post phase was abandoned by a saturated queue under the shed
	// backpressure policy.
	Late bool `json:"late,omitempty"`
	Shed bool `json:"shed,omitempty"`
	// ReturnUnixNano is when the response returned to the client (late
	// records only); LagNanos is the detection lag — record time minus
	// return time, non-negative. Both timestamps travel with the record
	// so lag is reconstructible from the trail alone.
	ReturnUnixNano int64 `json:"return_unix_nano,omitempty"`
	LagNanos       int64 `json:"lag_nanos,omitempty"`
}

// TimeStamp returns the record time as a time.Time.
func (r *AuditRecord) TimeStamp() time.Time { return time.Unix(0, r.Time) }

// DefaultAuditMaxBytes is the segment rotation threshold.
const DefaultAuditMaxBytes = 8 << 20

// segmentName renders the canonical segment file name.
func segmentName(index int) string {
	return fmt.Sprintf("audit-%06d.jsonl", index)
}

// AuditLog is an append-only, size-rotated JSONL audit sink. Records are
// written one JSON document per line into numbered segment files
// (audit-000001.jsonl, audit-000002.jsonl, ...) inside a directory; a
// segment is rotated once it exceeds MaxBytes. Sequence numbers are
// assigned under the log's lock, so the chain of records is contiguous
// across segments — the invariant auditctl verify checks.
//
// Safe for concurrent use. Write failures are remembered and surfaced by
// Err; monitoring must never fail because the audit sink did.
type AuditLog struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	seq      uint64
	curIndex int
	cur      *os.File
	curSize  int64
	counts   KeyedCounter // records written per outcome
	err      error
	now      func() time.Time
}

// OpenAuditLog opens (or creates) the audit directory and prepares the
// next segment. An existing chain is resumed: the sequence continues
// after the last valid record, and writes go to a fresh segment so a
// crash-torn tail is never appended to.
func OpenAuditLog(dir string, maxBytes int64) (*AuditLog, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultAuditMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: audit dir: %w", err)
	}
	segments, err := AuditSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &AuditLog{dir: dir, maxBytes: maxBytes, now: time.Now}
	if len(segments) > 0 {
		last := segments[len(segments)-1]
		l.curIndex = last.Index
		recs, _, err := readSegment(last.Path)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			l.seq = recs[len(recs)-1].Seq
		} else {
			// Empty/torn-only tail segment: walk back for the last seq.
			for i := len(segments) - 2; i >= 0; i-- {
				recs, _, err := readSegment(segments[i].Path)
				if err != nil {
					return nil, err
				}
				if len(recs) > 0 {
					l.seq = recs[len(recs)-1].Seq
					break
				}
			}
		}
	}
	return l, nil
}

// Dir returns the audit directory.
func (l *AuditLog) Dir() string {
	return l.dir
}

// openSegment opens the next segment file; callers hold the lock.
func (l *AuditLog) openSegment() error {
	if l.cur != nil {
		_ = l.cur.Close()
		l.cur = nil
	}
	l.curIndex++
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.curIndex)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: open audit segment: %w", err)
	}
	l.cur = f
	l.curSize = 0
	return nil
}

// Append assigns the next sequence number to rec and writes it. The
// first error latches: subsequent records are dropped (and still
// counted), never partially interleaved.
func (l *AuditLog) Append(rec *AuditRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	rec.Seq = l.seq
	if rec.SchemaID == "" {
		rec.SchemaID = AuditSchemaID
		rec.SchemaVersion = AuditSchemaVersion
	}
	if rec.Time == 0 {
		rec.Time = l.now().UnixNano()
	}
	l.counts.Add(rec.Outcome, 1)
	if l.err != nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		l.err = fmt.Errorf("obs: marshal audit record: %w", err)
		return
	}
	data = append(data, '\n')
	if l.cur == nil || l.curSize+int64(len(data)) > l.maxBytes && l.curSize > 0 {
		if err := l.openSegment(); err != nil {
			l.err = err
			return
		}
	}
	n, err := l.cur.Write(data)
	l.curSize += int64(n)
	if err != nil {
		l.err = fmt.Errorf("obs: write audit record: %w", err)
	}
}

// Counts returns how many records were appended per outcome since the
// log was opened (write failures included — the counter answers "what
// should be on disk", which verification compares against reality).
func (l *AuditLog) Counts() map[string]uint64 {
	return l.counts.Snapshot()
}

// Err returns the first write error, if any.
func (l *AuditLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Sync flushes the current segment to stable storage.
func (l *AuditLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	return l.cur.Sync()
}

// Close closes the current segment.
func (l *AuditLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	return err
}

// Segment identifies one audit segment file on disk.
type Segment struct {
	// Path is the file path.
	Path string
	// Index is the numeric segment index from the file name.
	Index int
	// Size is the file size in bytes.
	Size int64
}

// AuditSegments lists the audit segments in dir, sorted by index.
func AuditSegments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: read audit dir: %w", err)
	}
	var out []Segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "audit-%d.jsonl", &idx); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("obs: stat audit segment: %w", err)
		}
		out = append(out, Segment{Path: filepath.Join(dir, e.Name()), Index: idx, Size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}
