package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cloudmon/internal/obs"
)

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
	for _, name := range []string{"cinder-mixed", "cinder-read-heavy", "cinder-write-heavy",
		"cinder-forbidden", "cinder-open-loop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestRunJSON is the acceptance check: `loadmon -scenario cinder-mixed
// -json` against the in-process cloudsim produces a stable JSON report
// with request counts, verdict tallies and latency percentiles.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-scenario", "cinder-mixed", "-json", "-seed", "7"}
	if testing.Short() {
		args = append(args, "-requests", "400", "-warmup", "40", "-clients", "8")
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var report struct {
		Scenario string         `json:"scenario"`
		Requests int            `json:"requests"`
		Errors   int            `json:"errors"`
		Verdicts map[string]int `json:"verdicts"`
		Latency  struct {
			P50 float64 `json:"p50_us"`
			P95 float64 `json:"p95_us"`
			P99 float64 `json:"p99_us"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if report.Scenario != "cinder-mixed" {
		t.Errorf("scenario = %q", report.Scenario)
	}
	if report.Requests <= 0 || report.Errors != 0 {
		t.Errorf("requests=%d errors=%d", report.Requests, report.Errors)
	}
	if len(report.Verdicts) == 0 {
		t.Error("no verdict tallies in report")
	}
	if report.Latency.P50 <= 0 || report.Latency.P99 < report.Latency.P50 {
		t.Errorf("implausible percentiles: %+v", report.Latency)
	}
}

func TestRunTextWithOverrides(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scenario", "cinder-read-heavy", "-requests", "200", "-warmup", "20",
		"-clients", "4", "-seed", "3", "-cache-ttl", "25ms"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"cinder-read-heavy", "requests", "p95"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-scenario", "no-such-scenario"},
		{"-mode", "panic"},
		{"-level", "extreme"},
		{"-target", "http://127.0.0.1:1"}, // missing -cloud/-project
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestVerifyWithAudit runs the full three-way cross-check: verdict
// tallies, the /metrics registry and the on-disk audit trail must agree.
func TestVerifyWithAudit(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-scenario", "cinder-mixed", "-requests", "200", "-clients", "4",
		"-seed", "11", "-audit-dir", dir, "-verify"}, &out)
	if err != nil {
		t.Fatalf("run -verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: structural invariants hold") {
		t.Fatalf("no verify confirmation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "audit records:") {
		t.Fatalf("report has no audit tallies:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stage pre_snapshot") {
		t.Fatalf("report has no stage breakdown:\n%s", out.String())
	}
	// The trail must be inspectable after the run.
	res, err := obs.VerifyAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Records == 0 {
		t.Fatalf("audit chain: %+v problems %v", res, res.Problems)
	}
}
