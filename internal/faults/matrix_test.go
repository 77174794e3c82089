package faults_test

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/faults"
	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
)

// The matrix drives one monitored GET through a deployment whose
// snapshot traffic is broken by each fault kind in turn, under each
// degradation policy, and asserts the exact verdict and counter the
// combination must produce.
//
// The fault rules are scoped to the identity token-validation GET
// (/identity/v3/auth/tokens), which only the snapshot path touches: the
// pre-state needs user.id.groups for the Table-I guards, while the
// forwarded volume request never goes near identity. That isolates
// "snapshot failed" from "forward failed", which is the distinction the
// policies are about.
const snapshotOnlyPath = "/identity/v3/auth/tokens"

// matrixKinds are the failure modes under test. Latency is sized to
// overrun the per-attempt deadline below, so it degenerates into a
// snapshot timeout rather than a slow success.
func matrixRule(kind faults.Kind) faults.Rule {
	r := faults.Rule{Kind: kind, Method: http.MethodGet, Path: snapshotOnlyPath, Every: 1}
	if kind == faults.KindLatency {
		r.LatencyMS = 600
	}
	return r
}

// deployCell builds a fresh deployment for one matrix cell.
func deployCell(t *testing.T, kind faults.Kind, policy monitor.FailPolicy) *loadgen.Deployment {
	t.Helper()
	opts := loadgen.Options{
		Monitor: core.Options{
			Level:        monitor.CheckPreOnly,
			FailPolicy:   policy,
			CloudTimeout: 200 * time.Millisecond,
			Retry:        osclient.RetryPolicy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond},
		},
		Faults: &faults.Profile{Rules: []faults.Rule{matrixRule(kind)}},
	}
	dep, err := loadgen.Deploy(opts)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return dep
}

// adminClient aims an authenticated admin client at the monitor proxy.
func adminClient(dep *loadgen.Deployment) *osclient.Client {
	return &osclient.Client{
		BaseURL:    dep.Target.BaseURL,
		Token:      dep.Tenants[0].Tokens[loadgen.RoleAdmin],
		HTTPClient: dep.Target.HTTPClient,
	}
}

func mustCreateVolume(t *testing.T, c *osclient.Client, projectID string) string {
	t.Helper()
	in := map[string]map[string]any{"volume": {"name": "matrix", "size": 1}}
	var out struct {
		Volume struct {
			ID string `json:"id"`
		} `json:"volume"`
	}
	if _, err := c.Do(http.MethodPost, "/projects/"+projectID+"/volumes", in, &out, nil); err != nil {
		t.Fatalf("create volume: %v", err)
	}
	return out.Volume.ID
}

func TestFaultPolicyMatrix(t *testing.T) {
	kinds := []faults.Kind{
		faults.KindLatency,
		faults.KindStatus,
		faults.KindReset,
		faults.KindMalformed,
		faults.KindTokenExpiry,
	}
	policies := []monitor.FailPolicy{monitor.FailClosed, monitor.FailOpen}

	for _, kind := range kinds {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("%s/%s", kind, policy), func(t *testing.T) {
				t.Parallel()
				dep := deployCell(t, kind, policy)
				mon := dep.Instances[0].Sys.Monitor

				// Phase 1, faults off: seed a volume and read it once
				// healthy.
				dep.Injector.SetEnabled(false)
				admin := adminClient(dep)
				project := dep.Tenants[0].ProjectID
				volPath := "/projects/" + project + "/volumes/" + mustCreateVolume(t, admin, project)
				if status, err := admin.Do(http.MethodGet, volPath, nil, nil, nil); err != nil || status != http.StatusOK {
					t.Fatalf("warm read: status %d err %v", status, err)
				}
				// Phase 2, faults on: the same read with every snapshot
				// sabotaged.
				dep.Injector.SetEnabled(true)
				before := mon.Outcomes()
				status, err := admin.Do(http.MethodGet, volPath, nil, nil, nil)
				after := mon.Outcomes()

				log := mon.Log()
				if len(log) == 0 {
					t.Fatal("no verdicts recorded")
				}
				v := log[len(log)-1]

				var wantOutcome monitor.Outcome
				switch policy {
				case monitor.FailClosed:
					wantOutcome = monitor.Error
					if err == nil || status != http.StatusBadGateway {
						t.Errorf("status %d err %v, want 502 (fail-closed must not serve)", status, err)
					}
					if v.Forwarded {
						t.Error("fail-closed forwarded a request whose snapshot failed")
					}
				case monitor.FailOpen:
					wantOutcome = monitor.Unverified
					if err != nil || status != http.StatusOK {
						t.Errorf("status %d err %v, want 200 (fail-open must forward)", status, err)
					}
					if !v.Forwarded {
						t.Error("fail-open verdict not marked Forwarded")
					}
				}
				if v.Outcome != wantOutcome {
					t.Errorf("outcome %s (detail %q), want %s", v.Outcome, v.Detail, wantOutcome)
				}
				if d := after[wantOutcome] - before[wantOutcome]; d != 1 {
					t.Errorf("counter %s moved by %d, want 1", wantOutcome, d)
				}
				if n := dep.Injector.Counts()[string(kind)]; n < 1 {
					t.Errorf("injector never fired %s (counts %v)", kind, dep.Injector.Counts())
				}
			})
		}
	}
}
