package core_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// harness is a fully wired deployment: simulated cloud + monitor proxy,
// both served over real HTTP.
type harness struct {
	cloud      *openstack.Cloud
	cloudSrv   *httptest.Server
	monitorSrv *httptest.Server
	sys        *core.System
	projectID  string
	verdicts   *verdictSink
}

// verdictSink collects every verdict a monitor records; install its add
// method as the OnVerdict hook. The hook runs on the monitor's request
// goroutines, so the sink locks.
type verdictSink struct {
	mu       sync.Mutex
	verdicts []monitor.Verdict
}

func (s *verdictSink) add(v monitor.Verdict) {
	s.mu.Lock()
	s.verdicts = append(s.verdicts, v)
	s.mu.Unlock()
}

// all returns the verdicts in the order they were recorded.
func (s *verdictSink) all() []monitor.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]monitor.Verdict(nil), s.verdicts...)
}

// violations returns the recorded contract violations.
func (s *verdictSink) violations() []monitor.Verdict {
	var out []monitor.Verdict
	for _, v := range s.all() {
		if v.Outcome.IsViolation() {
			out = append(out, v)
		}
	}
	return out
}

func newHarness(t *testing.T, mode monitor.Mode) *harness {
	t.Helper()
	return newHarnessWithModel(t, mode, paper.CinderModel())
}

func newHarnessWithModel(t *testing.T, mode monitor.Mode, model *uml.Model) *harness {
	t.Helper()
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "myProject",
		Quota:       cinder.QuotaSet{Volumes: 3, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw-carol", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw-svc", Group: paper.GroupProjAdministrator},
		},
	})
	cloudSrv := httptest.NewServer(cloud)
	t.Cleanup(cloudSrv.Close)

	verdicts := &verdictSink{}
	sys, err := core.Build(core.Options{
		Model:    model,
		CloudURL: cloudSrv.URL,
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw-svc", ProjectID: res.ProjectID,
		},
		Mode:      mode,
		OnVerdict: verdicts.add,
	})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	monitorSrv := httptest.NewServer(sys.Monitor)
	t.Cleanup(monitorSrv.Close)
	return &harness{
		cloud:      cloud,
		cloudSrv:   cloudSrv,
		monitorSrv: monitorSrv,
		sys:        sys,
		projectID:  res.ProjectID,
		verdicts:   verdicts,
	}
}

// cloudLogin authenticates against the cloud and returns a client that
// talks to the *monitor* with that token — the paper's workflow, where the
// CM user obtained credentials from the cloud and invokes URIs on the CM.
func (h *harness) monitorClient(t *testing.T, user, password string) *osclient.Client {
	t.Helper()
	auth := osclient.New(h.cloudSrv.URL)
	tok, err := auth.Authenticate(user, password, h.projectID)
	if err != nil {
		t.Fatalf("authenticate %s: %v", user, err)
	}
	return osclient.New(h.monitorSrv.URL).WithToken(tok)
}

// monitorVolumePath builds the monitor-facing URI for the volume resource.
func (h *harness) volumesPath() string {
	return "/projects/" + h.projectID + "/volumes"
}

func (h *harness) createVolume(t *testing.T, c *osclient.Client, name string) string {
	t.Helper()
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	in := map[string]map[string]any{"volume": {"name": name, "size": 5}}
	if _, err := c.Do(http.MethodPost, h.volumesPath(), in, &out, nil); err != nil {
		t.Fatalf("create volume via monitor: %v", err)
	}
	return out.Volume.ID
}

func TestMonitoredLifecycleThroughProxy(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	admin := h.monitorClient(t, "alice", "pw-alice")

	// POST through the monitor.
	volID := h.createVolume(t, admin, "data")

	// GET through the monitor.
	status, err := admin.Do(http.MethodGet, h.volumesPath()+"/"+volID, nil, nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("GET via monitor = %d, %v", status, err)
	}
	// PUT through the monitor.
	in := map[string]map[string]any{"volume": {"name": "renamed"}}
	status, err = admin.Do(http.MethodPut, h.volumesPath()+"/"+volID, in, nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("PUT via monitor = %d, %v", status, err)
	}
	// DELETE through the monitor: backend's 204 passes through.
	status, err = admin.Do(http.MethodDelete, h.volumesPath()+"/"+volID, nil, nil, nil)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("DELETE via monitor = %d, %v", status, err)
	}

	for _, v := range h.verdicts.all() {
		if v.Outcome != monitor.OK {
			t.Errorf("verdict %s = %v (%s)", v.Trigger, v.Outcome, v.Detail)
		}
	}
	cov := h.sys.Monitor.Coverage()
	for _, s := range []string{"1.1", "1.2", "1.3", "1.4"} {
		if cov[s] != 1 {
			t.Errorf("coverage[%s] = %d, want 1", s, cov[s])
		}
	}
}

func TestEnforceBlocksUnauthorizedDelete(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	admin := h.monitorClient(t, "alice", "pw-alice")
	member := h.monitorClient(t, "bob", "pw-bob")

	volID := h.createVolume(t, admin, "data")

	// Member DELETE: the contract pre fails -> 412, never forwarded.
	status, err := member.Do(http.MethodDelete, h.volumesPath()+"/"+volID, nil, nil, nil)
	if !osclient.IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("member DELETE = %d, %v; want 412", status, err)
	}
	// The volume still exists on the cloud.
	direct := osclient.New(h.cloudSrv.URL)
	if _, err := direct.Authenticate("alice", "pw-alice", h.projectID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := direct.GetVolume(h.projectID, volID); err != nil {
		t.Errorf("volume gone after blocked delete: %v", err)
	}
}

func TestEnforceBlocksInUseDelete(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	admin := h.monitorClient(t, "alice", "pw-alice")
	volID := h.createVolume(t, admin, "data")

	// Attach the volume directly on the cloud (compute is not monitored).
	direct := osclient.New(h.cloudSrv.URL)
	if _, err := direct.Authenticate("alice", "pw-alice", h.projectID); err != nil {
		t.Fatal(err)
	}
	server, _, err := direct.CreateServer(h.projectID, "web")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.AttachVolume(h.projectID, server.ID, volID); err != nil {
		t.Fatal(err)
	}

	// Admin DELETE on an in-use volume: guard fails -> blocked.
	status, err := admin.Do(http.MethodDelete, h.volumesPath()+"/"+volID, nil, nil, nil)
	if !osclient.IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("in-use DELETE = %d, %v; want 412", status, err)
	}
}

func TestEnforceBlocksOverQuotaCreate(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	admin := h.monitorClient(t, "alice", "pw-alice")
	for i := 0; i < 3; i++ {
		h.createVolume(t, admin, "v")
	}
	in := map[string]map[string]any{"volume": {"name": "overflow", "size": 5}}
	status, err := admin.Do(http.MethodPost, h.volumesPath(), in, nil, nil)
	if !osclient.IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("over-quota POST = %d, %v; want 412", status, err)
	}
}

func TestObserveOracleDetectsPolicyMutant(t *testing.T) {
	h := newHarness(t, monitor.Observe)
	member := h.monitorClient(t, "bob", "pw-bob")
	admin := h.monitorClient(t, "alice", "pw-alice")
	volID := h.createVolume(t, admin, "data")

	// Mutate the cloud: DELETE policy wrongly allows members.
	mutated := h.cloud.Volumes.Policy().Clone()
	if err := mutated.SetRule(cinder.ActionDelete, "role:admin or role:member"); err != nil {
		t.Fatal(err)
	}
	h.cloud.Volumes.SetPolicy(mutated)

	// Member deletes through the observing monitor: the cloud accepts,
	// the contract says no -> violation detected (mutant killed).
	status, err := member.Do(http.MethodDelete, h.volumesPath()+"/"+volID, nil, nil, nil)
	if !osclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("mutant DELETE = %d, %v; want 409 violation", status, err)
	}
	violations := h.verdicts.violations()
	if len(violations) != 1 || violations[0].Outcome != monitor.ViolationForbiddenAccepted {
		t.Errorf("violations = %+v", violations)
	}
}

func TestObserveOracleDetectsNoOpDelete(t *testing.T) {
	h := newHarness(t, monitor.Observe)
	admin := h.monitorClient(t, "alice", "pw-alice")
	volID := h.createVolume(t, admin, "data")

	h.cloud.Volumes.SetFaults(cinder.Faults{DeleteIsNoOp: true})

	status, err := admin.Do(http.MethodDelete, h.volumesPath()+"/"+volID, nil, nil, nil)
	if !osclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("no-op DELETE = %d, %v; want 409", status, err)
	}
	violations := h.verdicts.violations()
	if len(violations) != 1 || violations[0].Outcome != monitor.ViolationPostcondition {
		t.Errorf("violations = %+v", violations)
	}
}

func TestInvalidRequesterTokenBlocked(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	bogus := osclient.New(h.monitorSrv.URL).WithToken("bogus-token")
	in := map[string]map[string]any{"volume": {"name": "x", "size": 5}}
	status, err := bogus.Do(http.MethodPost, h.volumesPath(), in, nil, nil)
	if !osclient.IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("bogus-token POST = %d, %v; want 412", status, err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := core.Build(core.Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := core.Build(core.Options{Model: paper.CinderModel()}); err == nil {
		t.Error("missing cloud URL accepted")
	}
	bad := paper.CinderModel()
	bad.Behavioral.Transitions[0].Guard = "(((" // malformed OCL
	if _, err := core.Build(core.Options{Model: bad, CloudURL: "http://x"}); err == nil {
		t.Error("malformed model accepted")
	}
}

func TestUnknownProjectBlocked(t *testing.T) {
	h := newHarness(t, monitor.Enforce)
	admin := h.monitorClient(t, "alice", "pw-alice")
	// DELETE against a project that does not exist: project.id->size()=1
	// fails in every case pre-condition.
	status, err := admin.Do(http.MethodDelete, "/projects/ghost/volumes/v1", nil, nil, nil)
	if !osclient.IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("ghost-project DELETE = %d, %v; want 412", status, err)
	}
}
