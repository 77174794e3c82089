package core_test

import (
	"net/http"
	"testing"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// The Nova server model is the extension scenario: the same pipeline
// monitors the compute API (see internal/paper/nova.go).

func TestNovaModelMonitoredLifecycle(t *testing.T) {
	h := newHarnessWithModel(t, monitor.Enforce, paper.NovaModel())
	admin := h.monitorClient(t, "alice", "pw-alice")
	member := h.monitorClient(t, "bob", "pw-bob")
	user := h.monitorClient(t, "carol", "pw-carol")
	servers := "/projects/" + h.projectID + "/servers"

	// SecReq 2.2: POST by member is permitted.
	var created struct {
		Server struct {
			ID string `json:"id"`
		} `json:"server"`
	}
	in := map[string]map[string]string{"server": {"name": "web"}}
	status, err := member.Do(http.MethodPost, servers, in, &created, nil)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("member POST server = %d, %v", status, err)
	}
	// SecReq 2.2: POST by plain user is blocked by the monitor.
	status, _ = user.Do(http.MethodPost, servers, in, nil, nil)
	if status != http.StatusPreconditionFailed {
		t.Errorf("user POST server = %d, want 412", status)
	}
	// SecReq 2.1: GET by every role.
	for name, c := range map[string]*osclient.Client{
		"admin": admin, "member": member, "user": user,
	} {
		status, err := c.Do(http.MethodGet, servers+"/"+created.Server.ID, nil, nil, nil)
		if err != nil || status != http.StatusOK {
			t.Errorf("GET as %s = %d, %v", name, status, err)
		}
	}
	// SecReq 2.3: DELETE by member blocked, by admin permitted.
	status, _ = member.Do(http.MethodDelete, servers+"/"+created.Server.ID, nil, nil, nil)
	if status != http.StatusPreconditionFailed {
		t.Errorf("member DELETE server = %d, want 412", status)
	}
	status, err = admin.Do(http.MethodDelete, servers+"/"+created.Server.ID, nil, nil, nil)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("admin DELETE server = %d, %v", status, err)
	}

	for _, v := range h.verdicts.all() {
		if v.Outcome != monitor.OK && v.Outcome != monitor.Blocked {
			t.Errorf("verdict %s = %v (%s)", v.Trigger, v.Outcome, v.Detail)
		}
	}
	cov := h.sys.Monitor.Coverage()
	for _, s := range []string{"2.1", "2.2", "2.3"} {
		if cov[s] == 0 {
			t.Errorf("SecReq %s not covered", s)
		}
	}
}

func TestNovaModelValidatesAndGenerates(t *testing.T) {
	m := paper.NovaModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("nova model invalid: %v", err)
	}
	sys, err := core.Build(core.Options{
		Model:    m,
		CloudURL: "http://x",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Contracts.Contracts) != 3 {
		t.Errorf("contracts = %d, want 3 (GET/POST/DELETE server)", len(sys.Contracts.Contracts))
	}
}
