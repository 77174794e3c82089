package fleet

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"cloudmon/internal/obs"
)

// Member is one monitor instance as the front tier sees it. In-process
// fleets (loadmon -fleet) fill the fields with direct handler and method
// references; a remote front fills them with small HTTP forwarders.
type Member struct {
	// ID is the instance id — the rendezvous-hash identity. Required.
	ID string
	// Proxy serves the instance's monitor proxy. Required.
	Proxy http.Handler
	// Metrics scrapes the instance's exposition document for the front's
	// federation endpoint (nil: the instance is skipped in federation).
	Metrics func() (string, error)
}

// Front is the fleet's routing tier: an http.Handler that extracts the
// project key from each request path and forwards it to the rendezvous
// owner. Routing is sticky and fenced: the front tracks per-project
// in-flight counts, and when a resize moves a project to a new owner, the
// project's new requests wait for the old owner's in-flight requests to
// drain before any of them is routed — so the old and the new owner never
// judge the same project's requests at once.
type Front struct {
	mu      sync.Mutex
	members map[string]*Member
	ring    *Ring
	states  map[string]*projectState

	routed     obs.KeyedCounter // requests per instance id
	remaps     obs.Counter      // project ownership changes (resizes only)
	fenceWaits obs.Counter      // requests that waited on a migration fence
	requests   obs.Counter
}

// projectState is the front's sticky-ownership record for one project.
type projectState struct {
	owner    string
	inflight int
	cond     *sync.Cond
}

// NewFront builds a front over the members; the initial ring spans all of
// them.
func NewFront(members []*Member) (*Front, error) {
	f := &Front{
		members: make(map[string]*Member),
		states:  make(map[string]*projectState),
	}
	if err := f.resizeLocked(members); err != nil {
		return nil, err
	}
	return f, nil
}

// Resize replaces the member set — the N→N+1 (or N→N-1) operation. The
// ring swaps atomically under the front's lock; in-flight requests finish
// on their old owner, and every project the new ring assigns elsewhere is
// fenced until they have drained before its next request routes.
func (f *Front) Resize(members []*Member) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.resizeLocked(members); err != nil {
		return err
	}
	// Wake fence waiters: the desired owner may have changed again.
	for _, st := range f.states {
		st.cond.Broadcast()
	}
	return nil
}

func (f *Front) resizeLocked(members []*Member) error {
	ids := make([]string, 0, len(members))
	byID := make(map[string]*Member, len(members))
	for _, m := range members {
		if m == nil || m.Proxy == nil {
			return fmt.Errorf("fleet: member without a proxy handler")
		}
		ids = append(ids, m.ID)
		byID[m.ID] = m
	}
	ring, err := NewRing(ids)
	if err != nil {
		return err
	}
	f.members = byID
	f.ring = ring
	return nil
}

// Ring returns the current routing table.
func (f *Front) Ring() *Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring
}

// ProjectKey extracts the routing key from a request path. The monitored
// APIs all carry the project as the segment after "projects" (the
// monitor's routes bind it as {project_id}); requests without one — health
// probes, unroutable paths — hash by their full path so they still route
// deterministically.
func ProjectKey(path string) string {
	segs := strings.Split(strings.Trim(path, "/"), "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "projects" {
			return segs[i+1]
		}
	}
	return path
}

// ServeHTTP routes the request to the project's owner.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	project := ProjectKey(r.URL.Path)
	m, st := f.acquire(project)
	f.requests.Inc()
	f.routed.Add(m.ID, 1)
	defer f.release(st)
	m.Proxy.ServeHTTP(w, r)
}

// acquire resolves the project's owner under the migration fence and
// registers the request in flight.
func (f *Front) acquire(project string) (*Member, *projectState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.states[project]
	if st == nil {
		st = &projectState{cond: sync.NewCond(&f.mu)}
		f.states[project] = st
	}
	want := f.ring.Owner(project)
	waited := false
	for st.owner != "" && st.owner != want && st.inflight > 0 {
		// The ring moved the project while the old owner still has its
		// requests in flight: wait for the drain, then recheck (the ring
		// may have moved again underneath the wait).
		waited = true
		st.cond.Wait()
		want = f.ring.Owner(project)
	}
	if waited {
		f.fenceWaits.Inc()
	}
	if st.owner != want {
		if st.owner != "" {
			f.remaps.Inc()
		}
		st.owner = want
	}
	st.inflight++
	return f.members[want], st
}

// release retires an in-flight request and wakes fence waiters when the
// project drains.
func (f *Front) release(st *projectState) {
	f.mu.Lock()
	st.inflight--
	if st.inflight == 0 {
		st.cond.Broadcast()
	}
	f.mu.Unlock()
}

// Stats is the front's routing accounting.
type Stats struct {
	// Requests is the total routed request count.
	Requests uint64
	// Routed counts requests per instance id.
	Routed map[string]uint64
	// Remaps counts project ownership changes (0 without a resize — the
	// stable-routing invariant loadmon -verify pins).
	Remaps uint64
	// FenceWaits counts requests that waited on a migration fence.
	FenceWaits uint64
	// Projects is the number of distinct project keys seen.
	Projects int
}

// Stats snapshots the routing counters.
func (f *Front) Stats() Stats {
	f.mu.Lock()
	projects := len(f.states)
	f.mu.Unlock()
	return Stats{
		Requests:   f.requests.Value(),
		Routed:     f.routed.Snapshot(),
		Remaps:     f.remaps.Value(),
		FenceWaits: f.fenceWaits.Value(),
		Projects:   projects,
	}
}

// Owners snapshots the sticky ownership table (project → instance id) for
// projects that have routed at least one request.
func (f *Front) Owners() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]string, len(f.states))
	for p, st := range f.states {
		if st.owner != "" {
			out[p] = st.owner
		}
	}
	return out
}

// RegisterMetrics exposes the front's routing counters.
func (f *Front) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		w.Counter("fleet_requests_total",
			"Requests routed by the fleet front.", float64(f.requests.Value()))
		w.KeyedCounter("fleet_routed_total",
			"Requests routed per monitor instance.", &f.routed, "instance")
		w.Counter("fleet_remaps_total",
			"Project ownership changes (resize-driven remaps).", float64(f.remaps.Value()))
		w.Counter("fleet_fence_waits_total",
			"Requests that waited on a migration fence.", float64(f.fenceWaits.Value()))
		f.mu.Lock()
		n, projects := len(f.members), len(f.states)
		f.mu.Unlock()
		w.Gauge("fleet_instances", "Monitor instances in the ring.", float64(n))
		w.Gauge("fleet_projects", "Distinct project keys routed.", float64(projects))
	})
}

// FederationHandler serves the merged exposition document: the front's
// own fleet_* counters plus every member scrape (each already labeled
// with its instance id via the registry's constant labels). Scrape errors
// surface as a fleet_federation_errors comment rather than failing the
// whole scrape — a dead instance must not blind the fleet.
func (f *Front) FederationHandler(front *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		members := make([]*Member, 0, len(f.members))
		for _, m := range f.members {
			members = append(members, m)
		}
		f.mu.Unlock()
		docs := make([]string, 0, len(members)+1)
		if front != nil {
			docs = append(docs, front.Render())
		}
		errs := 0
		for _, m := range members {
			if m.Metrics == nil {
				continue
			}
			doc, err := m.Metrics()
			if err != nil {
				errs++
				continue
			}
			docs = append(docs, doc)
		}
		merged := obs.MergeExpositions(docs...)
		if errs > 0 {
			merged += fmt.Sprintf("# fleet_federation_errors %d instance scrapes failed\n", errs)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(merged))
	})
}
