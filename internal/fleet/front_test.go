package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudmon/internal/obs"
)

// fakeInstance records which projects it served.
type fakeInstance struct {
	id     string
	mu     sync.Mutex
	served map[string]int
}

func newFakeInstance(id string) *fakeInstance {
	return &fakeInstance{id: id, served: map[string]int{}}
}

func (f *fakeInstance) member() *Member {
	return &Member{
		ID: f.id,
		Proxy: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			f.served[ProjectKey(r.URL.Path)]++
			f.mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}),
		Metrics: func() (string, error) {
			return fmt.Sprintf("# HELP t_up up\n# TYPE t_up gauge\nt_up{instance=%q} 1\n", f.id), nil
		},
	}
}

func (f *fakeInstance) servedProjects() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.served))
	for k, v := range f.served {
		out[k] = v
	}
	return out
}

func get(t *testing.T, h http.Handler, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

func TestProjectKey(t *testing.T) {
	cases := map[string]string{
		"/projects/p1/volumes":    "p1",
		"/projects/p1/volumes/v9": "p1",
		"/projects/abc":           "abc",
		"/healthz":                "/healthz",
		"/volumes/projects":       "/volumes/projects", // trailing "projects" has no successor
		"/x/projects/p7/quota":    "p7",
	}
	for path, want := range cases {
		if got := ProjectKey(path); got != want {
			t.Errorf("ProjectKey(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestFrontDisjointRouting: every project is served by exactly one
// instance, matching the ring, and the union covers all requests.
func TestFrontDisjointRouting(t *testing.T) {
	fakes := []*fakeInstance{newFakeInstance("m-00"), newFakeInstance("m-01"), newFakeInstance("m-02")}
	members := make([]*Member, len(fakes))
	for i, fk := range fakes {
		members[i] = fk.member()
	}
	front, err := NewFront(members)
	if err != nil {
		t.Fatal(err)
	}
	projects := syntheticProjects(200)
	for round := 0; round < 3; round++ {
		for _, p := range projects {
			if code := get(t, front, "/projects/"+p+"/volumes"); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
		}
	}
	ring := front.Ring()
	seen := 0
	for _, fk := range fakes {
		for p, n := range fk.servedProjects() {
			seen += n
			if owner := ring.Owner(p); owner != fk.id {
				t.Errorf("project %s served by %s, ring owner is %s", p, fk.id, owner)
			}
		}
	}
	if seen != 3*len(projects) {
		t.Errorf("served %d requests, want %d", seen, 3*len(projects))
	}
	st := front.Stats()
	if st.Remaps != 0 {
		t.Errorf("stable run recorded %d remaps, want 0", st.Remaps)
	}
	if st.Requests != uint64(3*len(projects)) {
		t.Errorf("front counted %d requests, want %d", st.Requests, 3*len(projects))
	}
	if st.Projects != len(projects) {
		t.Errorf("front saw %d projects, want %d", st.Projects, len(projects))
	}
}

// TestFrontResizeFence: a concurrent workload over many projects survives
// an N=3→4 resize with every request answered and the remap fraction
// within the rendezvous bound.
func TestFrontResizeFence(t *testing.T) {
	fakes := make([]*fakeInstance, 4)
	members := make([]*Member, 4)
	for i := range fakes {
		fakes[i] = newFakeInstance(fmt.Sprintf("m-%02d", i))
		members[i] = fakes[i].member()
	}
	front, err := NewFront(members[:3])
	if err != nil {
		t.Fatal(err)
	}
	projects := syntheticProjects(120)
	oldOwners := front.Ring()
	// Establish pre-resize ownership for every project, so each moved one
	// must be fenced when it re-routes.
	for _, p := range projects {
		if code := get(t, front, "/projects/"+p+"/volumes"); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}

	const rounds = 40
	var wg sync.WaitGroup
	resized := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/2 {
					if err := front.Resize(members); err != nil {
						t.Errorf("resize: %v", err)
					}
					close(resized)
				}
				p := projects[(w*rounds+i*17)%len(projects)]
				if code := get(t, front, "/projects/"+p+"/volumes"); code != http.StatusOK {
					t.Errorf("status %d for %s", code, p)
				}
			}
		}(w)
	}
	wg.Wait()
	<-resized

	// Drive every project once more so all remaps materialize.
	for _, p := range projects {
		get(t, front, "/projects/"+p+"/volumes")
	}

	newRing := front.Ring()
	if newRing.Size() != 4 {
		t.Fatalf("ring size %d after resize", newRing.Size())
	}
	moved := 0
	for _, p := range projects {
		if oldOwners.Owner(p) != newRing.Owner(p) {
			moved++
		}
	}
	if bound := int(float64(len(projects))*0.40) + 1; moved > bound {
		t.Errorf("%d/%d projects moved on 3→4 resize, want ≤ %d (~1/N)", moved, len(projects), bound)
	}
	st := front.Stats()
	if st.Remaps == 0 {
		t.Error("resize produced no recorded remaps")
	}
	// Post-resize, every served project must sit with its ring owner.
	for _, fk := range fakes {
		if fk.id == "m-03" {
			for p := range fk.servedProjects() {
				if newRing.Owner(p) != fk.id {
					t.Errorf("new instance served %s which it does not own", p)
				}
			}
		}
	}
}

// TestFederationHandler: the merged scrape carries the front's counters
// and every instance document with one header per metric.
func TestFederationHandler(t *testing.T) {
	fakes := []*fakeInstance{newFakeInstance("m-00"), newFakeInstance("m-01")}
	members := make([]*Member, len(fakes))
	for i, fk := range fakes {
		members[i] = fk.member()
	}
	front, err := NewFront(members)
	if err != nil {
		t.Fatal(err)
	}
	get(t, front, "/projects/p1/volumes")
	reg := &obs.Registry{}
	front.RegisterMetrics(reg)

	rec := httptest.NewRecorder()
	front.FederationHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	samples, err := obs.ParseText([]byte(body))
	if err != nil {
		t.Fatalf("federated document does not parse: %v\n%s", err, body)
	}
	up := obs.CounterByLabel(samples, "t_up", "instance")
	if up["m-00"] != 1 || up["m-01"] != 1 {
		t.Errorf("instance scrapes missing from federation: %v", up)
	}
	if got := obs.Find(samples, "fleet_requests_total"); len(got) != 1 || got[0].Value != 1 {
		t.Errorf("front counters missing from federation: %v", got)
	}
	if n := strings.Count(body, "# TYPE t_up"); n != 1 {
		t.Errorf("TYPE header duplicated %d times", n)
	}
}
