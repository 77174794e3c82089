package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
}

// TestFrontForgetsDrainedProjects: the front routes before anything
// authenticates a request, so it must not keep a record per project key
// it has ever routed — an entry lives only while its project has
// requests in flight.
func TestFrontForgetsDrainedProjects(t *testing.T) {
	fakes := []*fakeInstance{newFakeInstance("m-00"), newFakeInstance("m-01")}
	front, err := NewFront([]*Member{fakes[0].member(), fakes[1].member()})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50000
	for i := 0; i < keys; i++ {
		get(t, front, fmt.Sprintf("/projects/p%d/volumes", i))
	}
	front.mu.Lock()
	n := len(front.states)
	front.mu.Unlock()
	if n != 0 {
		t.Errorf("front holds %d project entries after %d drained keys, want 0", n, keys)
	}
	if st := front.Stats(); st.Requests != keys {
		t.Errorf("front counted %d requests, want %d", st.Requests, keys)
	}
}

// TestFrontFenceDrainsMovedProject: a project that a resize moves while
// its old owner serves a request reaches the new owner only after that
// request is released, and the front counts one fence wait and one
// remap for it.
func TestFrontFenceDrainsMovedProject(t *testing.T) {
	release := make(chan struct{})
	entered := make(map[string]chan struct{}, 4)
	members := make([]*Member, 4)
	for i := range members {
		id := fmt.Sprintf("m-%02d", i)
		in := make(chan struct{}, 2)
		entered[id] = in
		members[i] = &Member{ID: id, Proxy: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			in <- struct{}{}
			if r.URL.Query().Get("hold") != "" {
				<-release
			}
			w.WriteHeader(http.StatusOK)
		})}
	}
	front, err := NewFront(members[:3])
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing(instanceIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	project := ""
	for _, p := range syntheticProjects(200) {
		if grown.Owner(p) == "m-03" {
			project = p
			break
		}
	}
	if project == "" {
		t.Fatal("no synthetic project moves to the fourth member")
	}
	oldOwner := front.Ring().Owner(project)
	path := "/projects/" + project + "/volumes"

	first := make(chan int)
	go func() { first <- get(t, front, path+"?hold=1") }()
	<-entered[oldOwner]
	if err := front.Resize(members); err != nil {
		t.Fatal(err)
	}
	second := make(chan int)
	go func() { second <- get(t, front, path) }()
	// The second request counts the remap when it finds the old owner's
	// entry, before it waits on the fence.
	for deadline := time.Now().Add(10 * time.Second); front.Stats().Remaps == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the fence")
		}
	}
	front.Ring() // the waiter holds the front's lock until it waits
	select {
	case <-entered["m-03"]:
		t.Fatal("moved project reached its new owner while the old owner still served it")
	default:
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request: status %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("fenced request: status %d", code)
	}
	select {
	case <-entered["m-03"]:
	default:
		t.Fatal("fenced request did not route to the new owner")
	}
	if st := front.Stats(); st.FenceWaits != 1 || st.Remaps != 1 {
		t.Errorf("fence waits %d, remaps %d; want 1 and 1", st.FenceWaits, st.Remaps)
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
	// Whether a moved project's old owner still had requests in flight at
	// the resize is timing, so remaps may be 0; each moved project counts
	// at most once.
	st := front.Stats()
	if st.Routed["m-03"] == 0 {
		t.Error("the fourth instance routed no requests after the resize")
	}
	if int(st.Remaps) > moved {
		t.Errorf("front recorded %d remaps for %d moved projects — a project remapped twice", st.Remaps, moved)
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
