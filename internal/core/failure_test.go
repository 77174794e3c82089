package core_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// flakyCloud wraps the cloud handler and fails a window of requests with
// 503 — the cloud becoming unreachable mid-operation.
type flakyCloud struct {
	inner   http.Handler
	failing atomic.Bool
}

func (f *flakyCloud) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.failing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestMonitorSurvivesCloudOutage(t *testing.T) {
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "p",
		Quota:       cinder.QuotaSet{Volumes: 5, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	flaky := &flakyCloud{inner: cloud}
	cloudSrv := httptest.NewServer(flaky)
	defer cloudSrv.Close()

	verdicts := &verdictSink{}
	sys, err := core.Build(core.Options{
		Model:    paper.CinderModel(),
		CloudURL: cloudSrv.URL,
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
		},
		Mode:      monitor.Enforce,
		OnVerdict: verdicts.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	monSrv := httptest.NewServer(sys.Monitor)
	defer monSrv.Close()

	auth := osclient.New(cloudSrv.URL)
	tok, err := auth.Authenticate("alice", "pw", seed.ProjectID)
	if err != nil {
		t.Fatal(err)
	}
	client := osclient.New(monSrv.URL).WithToken(tok)
	volumes := "/projects/" + seed.ProjectID + "/volumes"
	in := map[string]map[string]any{"volume": {"name": "x", "size": 1}}

	// Healthy request first.
	if _, err := client.Do(http.MethodPost, volumes, in, nil, nil); err != nil {
		t.Fatalf("healthy POST: %v", err)
	}

	// Outage: the monitor must answer 502 (monitor error), not hang or
	// misreport a contract violation.
	flaky.failing.Store(true)
	status, _ := client.Do(http.MethodPost, volumes, in, nil, nil)
	if status != http.StatusBadGateway {
		t.Fatalf("POST during outage = %d, want 502", status)
	}
	log := verdicts.all()
	last := log[len(log)-1]
	if last.Outcome != monitor.Error {
		t.Errorf("outage verdict = %v, want error", last.Outcome)
	}
	if len(verdicts.violations()) != 0 {
		t.Error("outage misreported as a contract violation")
	}

	// Recovery: the monitor works again without restart (service token
	// re-auth is transparent).
	flaky.failing.Store(false)
	if _, err := client.Do(http.MethodPost, volumes, in, nil, nil); err != nil {
		t.Fatalf("POST after recovery: %v", err)
	}
}

// TestMonitorConcurrentRequests hammers the monitor from many goroutines;
// run with -race. Interleaved snapshots may observe each other's volume
// counts, so individual verdicts may legitimately disagree with the
// request's own effect — the assertions here are about safety (no panics,
// no monitor errors, one hook call per counted verdict), not about verdict
// values.
func TestMonitorConcurrentRequests(t *testing.T) {
	h := newHarness(t, monitor.Observe)
	admin := h.monitorClient(t, "alice", "pw-alice")
	volumes := "/projects/" + h.projectID + "/volumes"

	// High quota so creates never collide with the limit.
	h.cloud.Volumes.SetQuota(h.projectID, cinder.QuotaSet{Volumes: 100000, Gigabytes: 1 << 30})

	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var out struct {
					Volume cinder.Volume `json:"volume"`
				}
				in := map[string]map[string]any{"volume": {"name": "c", "size": 1}}
				if _, err := admin.Do(http.MethodPost, volumes, in, &out, nil); err != nil {
					continue
				}
				_, _ = admin.Do(http.MethodGet, volumes+"/"+out.Volume.ID, nil, nil, nil)
				_, _ = admin.Do(http.MethodDelete, volumes+"/"+out.Volume.ID, nil, nil, nil)
			}
		}()
	}
	wg.Wait()

	log := h.verdicts.all()
	if len(log) == 0 {
		t.Fatal("no verdicts recorded")
	}
	outcomes := h.sys.Monitor.Outcomes()
	if outcomes[monitor.Error] != 0 {
		t.Errorf("monitor errors under concurrency: %d", outcomes[monitor.Error])
	}
	total := 0
	for _, n := range outcomes {
		total += n
	}
	if total != len(log) {
		t.Errorf("outcome counters (%d) disagree with the hook's %d verdicts", total, len(log))
	}
}
