package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// createRecorder is a cloud that answers volume creates after a short
// delay and records, per project, the volume names it was sent, how many
// creates were in flight at once on each project, and across projects.
type createRecorder struct {
	mu              sync.Mutex
	names           map[string][]string
	inFlight        map[string]int
	maxProject      int
	total, maxTotal int
	failing         map[string]bool
}

func (c *createRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	project := strings.Split(r.URL.Path, "/")[2]
	var in struct {
		Volume struct {
			Name string `json:"name"`
		} `json:"volume"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.names[project] = append(c.names[project], in.Volume.Name)
	c.inFlight[project]++
	c.total++
	c.maxProject = max(c.maxProject, c.inFlight[project])
	c.maxTotal = max(c.maxTotal, c.total)
	c.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	c.mu.Lock()
	c.inFlight[project]--
	c.total--
	c.mu.Unlock()
	if c.failing[project] {
		return nil, errors.New("cloud unreachable")
	}
	body := fmt.Sprintf(`{"volume":{"id":%q}}`, project+"/"+in.Volume.Name)
	return &http.Response{
		StatusCode: http.StatusAccepted,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    r,
	}, nil
}

func prepopulateTarget(failing ...string) (Target, *createRecorder, []*volumePool) {
	rec := &createRecorder{names: map[string][]string{}, inFlight: map[string]int{}, failing: map[string]bool{}}
	for _, p := range failing {
		rec.failing[p] = true
	}
	tgt := Target{BaseURL: "http://monitor.internal", HTTPClient: &http.Client{Transport: rec}}
	for i := 0; i < 8; i++ {
		tgt.Tenants = append(tgt.Tenants, Tenant{ProjectID: fmt.Sprintf("p%d", i), Tokens: map[string]string{RoleAdmin: "tok"}})
	}
	pools := make([]*volumePool, len(tgt.Tenants))
	for i := range pools {
		pools[i] = &volumePool{}
	}
	return tgt, rec, pools
}

// TestPrepopulateTenantsConcurrently: prepopulation fills up to the
// client count of tenants at once, and each tenant's volumes in order on
// its own project, one create at a time.
func TestPrepopulateTenantsConcurrently(t *testing.T) {
	tgt, rec, pools := prepopulateTarget()
	if err := prepopulateTenants(tgt, tgt.Tenants, pools, 3, 4); err != nil {
		t.Fatal(err)
	}
	if rec.maxProject != 1 {
		t.Errorf("%d creates on one project at once, want 1", rec.maxProject)
	}
	if rec.maxTotal < 2 || rec.maxTotal > 4 {
		t.Errorf("%d creates in flight at once, want 2 to 4 (four tenants at a time)", rec.maxTotal)
	}
	want := []string{"seed-0", "seed-1", "seed-2"}
	for i, tn := range tgt.Tenants {
		if got := rec.names[tn.ProjectID]; !slices.Equal(got, want) {
			t.Errorf("%s: created %v, want %v in order", tn.ProjectID, got, want)
		}
		wantIDs := []string{tn.ProjectID + "/seed-0", tn.ProjectID + "/seed-1", tn.ProjectID + "/seed-2"}
		if !slices.Equal(pools[i].ids, wantIDs) {
			t.Errorf("%s: pool %v, want %v", tn.ProjectID, pools[i].ids, wantIDs)
		}
	}
}

// TestPrepopulateTenantsFirstError: a tenant whose create fails stops,
// every other tenant still fills, and the error returned is the first
// failing tenant's in tenant order.
func TestPrepopulateTenantsFirstError(t *testing.T) {
	tgt, rec, pools := prepopulateTarget("p5", "p2")
	err := prepopulateTenants(tgt, tgt.Tenants, pools, 3, 4)
	if err == nil || !strings.Contains(err.Error(), "prepopulate p2:") {
		t.Fatalf("error %v, want p2's", err)
	}
	for i, tn := range tgt.Tenants {
		want := 3
		if rec.failing[tn.ProjectID] {
			want = 1
		}
		if got := len(rec.names[tn.ProjectID]); got != want {
			t.Errorf("%s: %d creates sent, want %d", tn.ProjectID, got, want)
		}
		if rec.failing[tn.ProjectID] && len(pools[i].ids) != 0 {
			t.Errorf("%s: pool %v after a failed create", tn.ProjectID, pools[i].ids)
		}
	}
}
