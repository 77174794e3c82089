package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

func TestExamplesAreClean(t *testing.T) {
	for _, name := range []string{"cinder", "nova", "cinder-secreq-1.4"} {
		var out bytes.Buffer
		failed, err := run([]string{"-example", name}, &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if failed {
			t.Errorf("%s: analyzer reports errors on a shipped model:\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), "0 error(s)") {
			t.Errorf("%s: summary line missing:\n%s", name, out.String())
		}
	}
}

func TestBrokenModelFailsFromXMI(t *testing.T) {
	// Corrupt the Cinder model: an unparsable invariant is an MV001
	// error, which must drive the non-zero exit path.
	m := paper.CinderModel()
	m.Behavioral.States[0].Invariant = "volumes->size( = 1"
	path := filepath.Join(t.TempDir(), "broken.xmi")
	if err := xmi.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed, err := run([]string{path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("broken model not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MV001") {
		t.Errorf("MV001 missing from output:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-json", "-example", "cinder"}, &out); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Errors      int               `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if payload.Errors != 0 {
		t.Errorf("errors = %d, want 0", payload.Errors)
	}
}

func TestRequiredSecReqs(t *testing.T) {
	// SecReq 9.9 traces to nothing: MV402 error, non-zero exit.
	var out bytes.Buffer
	failed, err := run([]string{"-secreqs", "1.1,9.9", "-example", "cinder"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), "MV402") {
		t.Errorf("want MV402 failure for untraced tag, got:\n%s", out.String())
	}
}

func TestPassSelectionFlag(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-passes", "reachability", "-example", "cinder-secreq-1.4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MV10") {
		t.Errorf("reachability diagnostics missing on the sliced model:\n%s", out.String())
	}
	if strings.Contains(out.String(), "MV3") || strings.Contains(out.String(), "MV4") {
		t.Errorf("pass selection leaked other passes:\n%s", out.String())
	}
}

func TestListPasses(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-list-passes"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ocl-typecheck", "reachability", "guards", "interface", "secreq", "monitorability"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("pass %q missing from -list-passes output:\n%s", want, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("no arguments: want usage error")
	}
	if _, err := run([]string{"-example", "mystery"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown example: want error")
	}
	if _, err := run([]string{"-example", "cinder", "extra.xmi"}, &bytes.Buffer{}); err == nil {
		t.Error("-example with positional arg: want error")
	}
}

func TestDeterministicOutput(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var out bytes.Buffer
		if _, err := run([]string{"-example", "cinder-secreq-1.4"}, &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, out.String(), first)
		}
	}
}

func TestUnknownPassRejected(t *testing.T) {
	_, err := run([]string{"-passes", "bogus", "-example", "cinder"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown pass "bogus"`) {
		t.Errorf("err = %v, want unknown-pass error", err)
	}
}

// TestFactsOutput pins the -facts report on a model with a statically
// decided guard, read from XMI: the Cinder model with the full-quota
// DELETE guard made contradictory. Its disjunct is listed as static false
// with its reason, the implication as vacuous, and every facts artifact
// passes its machine check.
func TestFactsOutput(t *testing.T) {
	m := paper.CinderModel()
	found := false
	for i := range m.Behavioral.Transitions {
		tr := m.Behavioral.Transitions[i]
		if tr.Trigger.Method == uml.DELETE && tr.From == paper.StateFullQuota {
			tr.Guard += " and 2 > 3"
			found = true
		}
	}
	if !found {
		t.Fatal("no full-quota DELETE transition in the Cinder model")
	}
	path := filepath.Join(t.TempDir(), "static-guard.xmi")
	if err := xmi.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed, err := run([]string{"-facts", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("the static-guard model with -facts reports errors:\n%s", out.String())
	}
	s := out.String()
	label := paper.StateFullQuota + "->" + paper.StateNotFullQuota
	for _, needle := range []string{
		"MV700 warning transition DELETE(volume) " + label,
		"  pre[2] " + label + " static false — pre-condition disjunct decides to false for every state\n",
		"  post[2] " + label + " vacuous — antecedent is statically false",
		"GET(volume) /projects/{project_id}/volumes/{volume_id}\n  (nothing proven beyond per-state evaluation)\n",
	} {
		if !strings.Contains(s, needle) {
			t.Errorf("-facts output missing %q:\n%s", needle, s)
		}
	}
	if strings.Contains(s, "CHECK FAILED") {
		t.Errorf("facts machine check failed:\n%s", s)
	}
}

func TestCompiledOutput(t *testing.T) {
	var out bytes.Buffer
	failed, err := run([]string{"-compiled", "-example", "cinder"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("cinder with -compiled reports errors:\n%s", out.String())
	}
	s := out.String()
	// The DELETE artifact: one program per disjunct and consequent, the
	// slot table the programs resolve paths against.
	for _, needle := range []string{
		"DELETE(volume)",
		"programs: 3 pre, 3 post",
		"[0] project.id",
		"user.id.groups",
	} {
		if !strings.Contains(s, needle) {
			t.Errorf("-compiled output missing %q:\n%s", needle, s)
		}
	}
}
