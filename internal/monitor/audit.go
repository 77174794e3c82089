package monitor

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"cloudmon/internal/ocl"
)

// AuditWriter streams verdicts as NDJSON (one JSON document per line) —
// the durable log the paper's automated-testing use case needs for "fault
// localization". Install its Record method as Config.OnVerdict.
type AuditWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewAuditWriter returns an audit writer emitting to w.
func NewAuditWriter(w io.Writer) *AuditWriter {
	return &AuditWriter{enc: json.NewEncoder(w)}
}

// Record writes one verdict line. Write failures are remembered and
// reported by Err; monitoring must not fail because the audit sink did.
func (a *AuditWriter) Record(v Verdict) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	if err := a.enc.Encode(newVerdictDoc(v)); err != nil {
		a.err = err
	}
}

// Err returns the first write error, if any.
func (a *AuditWriter) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// verdictDoc is the JSON shape of one verdict: one AuditWriter line.
type verdictDoc struct {
	Trigger        string            `json:"trigger"`
	Outcome        string            `json:"outcome"`
	PreOK          bool              `json:"pre_ok"`
	PostOK         bool              `json:"post_ok"`
	Forwarded      bool              `json:"forwarded"`
	BackendStatus  int               `json:"backend_status,omitempty"`
	SecReqs        []string          `json:"sec_reqs,omitempty"`
	MatchedSecReqs []string          `json:"matched_sec_reqs,omitempty"`
	FailingClause  string            `json:"failing_clause,omitempty"`
	Detail         string            `json:"detail,omitempty"`
	FetchedPaths   int               `json:"fetched_paths"`
	ReusedPaths    int               `json:"reused_paths,omitempty"`
	ElapsedMicros  int64             `json:"elapsed_micros"`
	StageNanos     map[string]int64  `json:"stage_nanos,omitempty"`
	PreSnapshot    map[string]string `json:"pre_snapshot,omitempty"`
	PostSnapshot   map[string]string `json:"post_snapshot,omitempty"`
}

func newVerdictDoc(v Verdict) verdictDoc {
	return verdictDoc{
		Trigger:        v.Trigger.String(),
		Outcome:        v.Outcome.String(),
		PreOK:          v.PreOK,
		PostOK:         v.PostOK,
		Forwarded:      v.Forwarded,
		BackendStatus:  v.BackendStatus,
		SecReqs:        v.SecReqs,
		MatchedSecReqs: v.MatchedSecReqs,
		FailingClause:  v.FailingClause,
		Detail:         v.Detail,
		FetchedPaths:   v.FetchedPaths,
		ReusedPaths:    v.ReusedPaths,
		ElapsedMicros:  v.Elapsed.Microseconds(),
		StageNanos:     v.Trace.Map(),
		PreSnapshot:    snapshotDoc(v.PreSnapshot),
		PostSnapshot:   snapshotDoc(v.PostSnapshot),
	}
}

// snapshotDoc renders a snapshot environment with OCL literal syntax —
// the values the verdict was computed from, for fault localization.
func snapshotDoc(env ocl.MapEnv) map[string]string {
	if len(env) == 0 {
		return nil
	}
	out := make(map[string]string, len(env))
	keys := env.Keys()
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = env[k].String()
	}
	return out
}
