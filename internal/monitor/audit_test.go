package monitor

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckPreOnlySkipsPostSnapshot(t *testing.T) {
	// The post-state would fail the contract (no volume removed), but the
	// pre-only monitor never looks.
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(2, 10, "available", "admin"),
	}
	set, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	_ = set // full monitor as reference

	var sink verdictSink
	m2, err := New(Config{
		Contracts: set.contracts,
		Routes:    []Route{set.routes[3].route, set.routes[0].route, set.routes[1].route, set.routes[2].route},
		Provider:  p,
		Forward:   &fakeForwarder{status: 204},
		Mode:      Enforce,
		Level:     CheckPreOnly,
		OnVerdict: sink.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Level() != CheckPreOnly {
		t.Fatalf("level = %v", m2.Level())
	}
	rec := doDelete(t, m2)
	if rec.Code != 204 {
		t.Fatalf("status = %d (pre-only must accept)", rec.Code)
	}
	v := sink.last(t)
	if v.Outcome != OK || !v.PostOK {
		t.Errorf("verdict = %+v", v)
	}
	// Lazy evaluation fetches path-by-path, so the pre phase may make
	// several Snapshot calls; what CheckPreOnly guarantees is that none
	// of them happen after the forward.
	if p.postCalls != 0 {
		t.Errorf("post-phase snapshot calls = %d, want 0 (no post snapshot)", p.postCalls)
	}
}

func TestCheckLevelString(t *testing.T) {
	if CheckFull.String() != "full" || CheckPreOnly.String() != "pre-only" {
		t.Error("level names wrong")
	}
	if CheckLevel(9).String() == "" {
		t.Error("unknown level renders empty")
	}
}

func TestOnVerdictHook(t *testing.T) {
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	var seen []Verdict
	set, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	m, err := New(Config{
		Contracts: set.contracts,
		Routes:    []Route{set.routes[0].route, set.routes[1].route, set.routes[2].route, set.routes[3].route},
		Provider:  p,
		Forward:   &fakeForwarder{status: 204},
		OnVerdict: func(v Verdict) { seen = append(seen, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	doDelete(t, m)
	if len(seen) != 1 || seen[0].Outcome != OK {
		t.Errorf("hook saw %v", seen)
	}
}

func TestAuditWriterNDJSON(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAuditWriter(&buf)
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	set, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	m, err := New(Config{
		Contracts: set.contracts,
		Routes:    []Route{set.routes[0].route, set.routes[1].route, set.routes[2].route, set.routes[3].route},
		Provider:  p,
		Forward:   &fakeForwarder{status: 204},
		OnVerdict: aw.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	doDelete(t, m)
	p.calls = 0
	doDelete(t, m)
	if err := aw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		var doc struct {
			Trigger       string            `json:"trigger"`
			Outcome       string            `json:"outcome"`
			PreOK         bool              `json:"pre_ok"`
			PreSnapshot   map[string]string `json:"pre_snapshot"`
			ElapsedMicros *int64            `json:"elapsed_micros"`
		}
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if doc.Trigger != "DELETE(volume)" || doc.Outcome != "ok" || !doc.PreOK {
			t.Errorf("doc = %+v", doc)
		}
		// Snapshots are rendered in OCL literal syntax for fault localization.
		if doc.PreSnapshot["user.id.groups"] != "Set{'admin'}" {
			t.Errorf("pre snapshot = %v", doc.PreSnapshot)
		}
		if doc.ElapsedMicros == nil || *doc.ElapsedMicros < 0 {
			t.Errorf("elapsed_micros = %v, want a non-negative duration", doc.ElapsedMicros)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errFake }

func TestAuditWriterRemembersError(t *testing.T) {
	aw := NewAuditWriter(failingWriter{})
	aw.Record(Verdict{})
	if aw.Err() == nil {
		t.Error("write error not remembered")
	}
	// Further records are silently dropped, no panic.
	aw.Record(Verdict{})
}
