package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmon/internal/monitor"
)

func TestFlagValidation(t *testing.T) {
	// -project is mandatory.
	if err := run([]string{}); err == nil {
		t.Error("missing -project accepted")
	}
	// Unknown mode is rejected before any network activity.
	if err := run([]string{"-project", "p1", "-mode", "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	// Missing XMI file is rejected.
	if err := run([]string{"-project", "p1", "-xmi", "no-such-file.xmi"}); err == nil {
		t.Error("missing XMI accepted")
	}
	// Unknown flag is rejected.
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// Unknown check level is rejected.
	if err := run([]string{"-project", "p1", "-level", "bogus"}); err == nil {
		t.Error("bogus level accepted")
	}
	// A slice matching nothing is rejected.
	if err := run([]string{"-project", "p1", "-secreqs", "9.9"}); err == nil {
		t.Error("empty slice accepted")
	}
}

func TestParseFleetMembers(t *testing.T) {
	members, err := parseFleetMembers("m-00=http://h0:8000|http://h0:8001, m-01=http://h1:8000")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].ID != "m-00" || members[1].ID != "m-01" {
		t.Fatalf("parsed %+v", members)
	}
	// The first member has an inspect URL, so it can federate.
	if members[0].Metrics == nil {
		t.Error("inspectable member lacks Metrics")
	}
	// The second is routing-only.
	if members[1].Metrics != nil {
		t.Error("routing-only member grew Metrics")
	}
	for _, bad := range []string{"", "m-00", "=http://h0:8000", "m-00=", "m-00=%%bad"} {
		if _, err := parseFleetMembers(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// A front spec never needs -project.
	if err := run([]string{"-fleet-front", "bogus-entry"}); err == nil {
		t.Error("bogus -fleet-front accepted")
	}
}

func TestSplitCSV(t *testing.T) {
	got := splitCSV(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitCSV = %v", got)
	}
	if splitCSV("") != nil {
		t.Error("empty input should yield nil")
	}
}

// failingWriter fails every write, as a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestVerdictSinksReportLatchedErrors: a verdict log whose writes failed
// makes closing the sinks fail, naming the log, while a log that took
// every verdict closes cleanly. Closing twice reports nothing new.
func TestVerdictSinksReportLatchedErrors(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) (*os.File, string) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		return f, path
	}
	v := monitor.Verdict{Outcome: monitor.OK}

	f, path := open("ok.ndjson")
	ok := &verdictSinks{logPath: path, log: f, writer: monitor.NewAuditWriter(f)}
	ok.writer.Record(v)
	if err := ok.close(); err != nil {
		t.Fatalf("closing a writable verdict log: %v", err)
	}

	f, path = open("full.ndjson")
	full := &verdictSinks{logPath: path, log: f, writer: monitor.NewAuditWriter(failingWriter{})}
	full.writer.Record(v)
	err := full.close()
	if err == nil || !strings.Contains(err.Error(), "verdict log "+path) || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("closing a verdict log whose write failed: %v, want an error naming %s", err, path)
	}
	if err := full.close(); err != nil {
		t.Fatalf("closing the sinks again: %v", err)
	}
}
