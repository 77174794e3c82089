package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// inspected builds a monitor, drives one OK delete and one blocked delete,
// and returns the inspect handler.
func inspected(t *testing.T) (*Monitor, http.Handler) {
	t.Helper()
	p := &fakeProvider{
		pre:  env(2, 10, "available", "admin"),
		post: env(1, 10, "available", "admin"),
	}
	m, _ := newMonitor(t, Enforce, p, &fakeForwarder{status: 204})
	doDelete(t, m) // OK
	p2 := &fakeProvider{pre: env(2, 10, "available", "member")}
	m2, _ := newMonitor(t, Enforce, p2, &fakeForwarder{status: 204})
	doDelete(t, m2) // Blocked (separate monitor to keep envs scripted)
	return m, m.InspectHandler()
}

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestInspectCoverageAndOutcomes(t *testing.T) {
	_, h := inspected(t)
	var cov struct {
		Coverage    map[string]int `json:"coverage"`
		Transitions map[string]int `json:"transitions"`
	}
	getJSON(t, h, "/coverage", &cov)
	if cov.Coverage["1.4"] != 1 || cov.Coverage["1.1"] != 0 {
		t.Errorf("coverage = %v", cov.Coverage)
	}
	if len(cov.Transitions) != 11 {
		t.Errorf("transition coverage universe = %d, want 11", len(cov.Transitions))
	}
	hits := 0
	for _, n := range cov.Transitions {
		hits += n
	}
	if hits != 1 {
		t.Errorf("transition hits = %d, want 1", hits)
	}
	var out struct {
		Outcomes map[string]int `json:"outcomes"`
	}
	getJSON(t, h, "/outcomes", &out)
	if out.Outcomes["ok"] != 1 || len(out.Outcomes) != 1 {
		t.Errorf("outcomes = %v, want one ok and nothing else", out.Outcomes)
	}
}

func TestInspectContracts(t *testing.T) {
	_, h := inspected(t)
	var body struct {
		Contracts []struct {
			Trigger    string   `json:"trigger"`
			URI        string   `json:"uri"`
			Pre        string   `json:"pre"`
			SecReqs    []string `json:"sec_reqs"`
			StatePaths []string `json:"state_paths"`
			Plan       struct {
				Pre []struct {
					Case  int      `json:"case"`
					Paths []string `json:"paths"`
				} `json:"pre"`
				Post []struct {
					Case    int      `json:"case"`
					Touched []string `json:"touched"`
				} `json:"post"`
				PrePaths []string `json:"pre_paths"`
			} `json:"plan"`
		} `json:"contracts"`
	}
	getJSON(t, h, "/contracts", &body)
	if len(body.Contracts) != 4 {
		t.Fatalf("contracts = %d", len(body.Contracts))
	}
	found := false
	for _, c := range body.Contracts {
		if c.Trigger == "DELETE(volume)" {
			found = true
			if c.URI == "" || c.Pre == "" || len(c.StatePaths) == 0 {
				t.Errorf("incomplete contract doc: %+v", c)
			}
			if len(c.SecReqs) != 1 || c.SecReqs[0] != "1.4" {
				t.Errorf("sec_reqs = %v", c.SecReqs)
			}
			if len(c.Plan.Pre) != 3 || len(c.Plan.Post) != 3 {
				t.Errorf("plan clauses = %d pre / %d post, want 3/3", len(c.Plan.Pre), len(c.Plan.Post))
			}
			if len(c.Plan.PrePaths) != len(c.StatePaths) {
				t.Errorf("plan pre_paths = %v, want the %d state paths", c.Plan.PrePaths, len(c.StatePaths))
			}
			for _, pc := range c.Plan.Post {
				if len(pc.Touched) == 0 {
					t.Errorf("post clause %d has no effect frame", pc.Case)
				}
			}
		}
	}
	if !found {
		t.Error("DELETE(volume) contract missing")
	}
}

func TestInspectReset(t *testing.T) {
	m, h := inspected(t)
	req := httptest.NewRequest(http.MethodPost, "/reset", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("reset status = %d", rec.Code)
	}
	if got := m.Outcomes(); len(got) != 0 {
		t.Errorf("outcome counters after reset = %v, want none", got)
	}
}

func TestInspectUnknownPath(t *testing.T) {
	_, h := inspected(t)
	if code := getJSON(t, h, "/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown path = %d", code)
	}
}
