package monitorcmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/monitor"
	"cloudmon/internal/paper"
	"cloudmon/internal/xmi"
)

func TestFlagValidation(t *testing.T) {
	// -project is mandatory.
	if err := Run([]string{}, io.Discard); err == nil {
		t.Error("missing -project accepted")
	}
	// Unknown mode is rejected before any network activity.
	if err := Run([]string{"-project", "p1", "-mode", "bogus"}, io.Discard); err == nil {
		t.Error("bogus mode accepted")
	}
	// Missing XMI file is rejected.
	if err := Run([]string{"-project", "p1", "-xmi", "no-such-file.xmi"}, io.Discard); err == nil {
		t.Error("missing XMI accepted")
	}
	// Unknown flag is rejected.
	if err := Run([]string{"-nope"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	// Unknown check level is rejected.
	if err := Run([]string{"-project", "p1", "-level", "bogus"}, io.Discard); err == nil {
		t.Error("bogus level accepted")
	}
	// A slice matching nothing is rejected.
	if err := Run([]string{"-project", "p1", "-secreqs", "9.9"}, io.Discard); err == nil {
		t.Error("empty slice accepted")
	}
}

// TestServersTimeOutStalledClients: every listener run and runFront bind
// (proxy, inspect and metrics; the front and its metrics) bounds how long
// a client may take to send a request and how long an idle connection
// stays open, and none bounds the answer.
func TestServersTimeOutStalledClients(t *testing.T) {
	var servers []*http.Server
	serve = func(_ io.Writer, ls *listeners, _ time.Duration, _ func(context.Context)) error {
		servers = append(servers, ls.servers...)
		ls.close()
		return nil
	}
	defer func() { serve = serveUntilSignal }()
	for _, args := range [][]string{
		{"-project", "p1", "-instance", "m-00", "-addr", "127.0.0.1:0",
			"-inspect-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"},
		{"-fleet-front", "m-00=http://127.0.0.1:1|http://127.0.0.1:2", "-addr", "127.0.0.1:0",
			"-metrics-addr", "127.0.0.1:0"},
	} {
		if err := Run(args, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	if len(servers) != 5 {
		t.Fatalf("run and runFront bound %d servers, want 5", len(servers))
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
	if err := Run([]string{"-fleet-front", "bogus-entry"}, io.Discard); err == nil {
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

// TestBannerNamesBoundAddresses: with ":0" ports the banner names the
// ports the listeners were bound to, and every listener accepts
// connections before it is served.
func TestBannerNamesBoundAddresses(t *testing.T) {
	var servers []*http.Server
	serve = func(_ io.Writer, ls *listeners, _ time.Duration, _ func(context.Context)) error {
		defer ls.close()
		for _, srv := range ls.servers {
			conn, err := net.Dial("tcp", srv.Addr)
			if err != nil {
				t.Errorf("%s is not bound before it is served: %v", srv.Addr, err)
				continue
			}
			conn.Close()
		}
		servers = append(servers, ls.servers...)
		return nil
	}
	defer func() { serve = serveUntilSignal }()
	var out strings.Builder
	err := Run([]string{"-project", "p1", "-addr", "127.0.0.1:0",
		"-inspect-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 3 {
		t.Fatalf("bound %d servers, want 3", len(servers))
	}
	for i, want := range []string{
		"cloud monitor (enforce mode) on %s, proxying",
		"inspect API on %s (",
		"metrics on %s/metrics",
	} {
		addr := servers[i].Addr
		if strings.HasSuffix(addr, ":0") {
			t.Errorf("server %d kept the unbound address %s", i, addr)
		}
		if line := fmt.Sprintf(want, addr); !strings.Contains(out.String(), line) {
			t.Errorf("banner lacks %q:\n%s", line, out.String())
		}
	}
}

// TestBindErrorPrecedesBanner: an address in use fails the command
// before it prints a banner, and the listeners bound before are closed.
func TestBindErrorPrecedesBanner(t *testing.T) {
	serve = func(io.Writer, *listeners, time.Duration, func(context.Context)) error {
		t.Error("served despite a bind error")
		return nil
	}
	defer func() { serve = serveUntilSignal }()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	freeAddr := free.Addr().String()
	free.Close()
	for _, args := range [][]string{
		{"-project", "p1", "-addr", freeAddr, "-metrics-addr", taken.Addr().String()},
		{"-fleet-front", "m-00=http://127.0.0.1:1", "-addr", freeAddr, "-metrics-addr", taken.Addr().String()},
	} {
		var out strings.Builder
		if err := Run(args, &out); err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Errorf("run(%v): %v, want an address-in-use error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing to bind:\n%s", args, out.String())
		}
		ln, err := net.Listen("tcp", freeAddr)
		if err != nil {
			t.Errorf("run(%v) left %s bound: %v", args, freeAddr, err)
			continue
		}
		ln.Close()
	}
}

// TestRunModelChecksDigest: a generated monitor's embedded model runs
// only under the contract digest recorded for it, and only on its own
// model.
func TestRunModelChecksDigest(t *testing.T) {
	served := 0
	serve = func(_ io.Writer, ls *listeners, _ time.Duration, _ func(context.Context)) error {
		ls.close()
		served++
		return nil
	}
	defer func() { serve = serveUntilSignal }()
	model := paper.CinderModel()
	data, err := xmi.Encode(model)
	if err != nil {
		t.Fatal(err)
	}
	set, err := contract.Generate(model)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-project", "p1", "-addr", "127.0.0.1:0"}

	const stale = "sha256:0000"
	var out strings.Builder
	err = RunModel(args, data, stale, &out)
	if err == nil || !strings.Contains(err.Error(), stale) || !strings.Contains(err.Error(), set.Digest()) {
		t.Fatalf("RunModel under a stale digest: %v, want an error naming %s and %s", err, stale, set.Digest())
	}
	if out.Len() != 0 || served != 0 {
		t.Fatalf("RunModel under a stale digest started:\n%s", out.String())
	}
	if err := RunModel(append(args, "-xmi", "other.xmi"), data, set.Digest(), io.Discard); err == nil {
		t.Error("-xmi accepted by a monitor with a built-in model")
	}
	if err := RunModel(args, data, set.Digest(), &out); err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	if served != 1 || !strings.Contains(out.String(), `4 contracts over model "cinder"`) {
		t.Errorf("RunModel served %d times, banner:\n%s", served, out.String())
	}
}
