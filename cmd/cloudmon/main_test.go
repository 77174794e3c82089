package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestServersTimeOutStalledClients: every listener run and runFront start
// (proxy, inspect and metrics; the front and its metrics) bounds how long
// a client may take to send a request and how long an idle connection
// stays open, and none bounds the answer.
func TestServersTimeOutStalledClients(t *testing.T) {
	var servers []*http.Server
	serve = func(proxy *http.Server, aux []*http.Server, _ time.Duration, _ func(context.Context)) error {
		servers = append(append(servers, proxy), aux...)
		return nil
	}
	defer func() { serve = serveUntilSignal }()
	for _, args := range [][]string{
		{"-project", "p1", "-instance", "m-00", "-addr", "127.0.0.1:0",
			"-inspect-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"},
		{"-fleet-front", "m-00=http://127.0.0.1:1|http://127.0.0.1:2", "-addr", "127.0.0.1:0",
			"-metrics-addr", "127.0.0.1:0"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	if len(servers) != 5 {
		t.Fatalf("run and runFront started %d servers, want 5", len(servers))
	}
	for _, srv := range servers {
		if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
			srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
			t.Errorf("server %s: read header %v, read %v, idle %v, write %v", srv.Addr,
				srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
		}
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
