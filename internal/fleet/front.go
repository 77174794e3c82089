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
// owner. Routing is fenced: the front tracks the owner and in-flight count
// of each project that has requests in flight, and when a resize moves
// such a project to a new owner, its new requests wait for the old
// owner's in-flight requests to drain before any of them is routed — so
// the old and the new owner never judge the same project's requests at
// once.
type Front struct {
	mu      sync.Mutex
	members map[string]*Member
	ring    *Ring
	// states holds an entry only while its project has requests in
	// flight: the front routes before anything authenticates a request,
	// so a table of every key ever routed would grow without bound.
	states map[string]projectState
	// drained is signalled whenever a project's entry drains (and on
	// resize); fence waiters recheck their project.
	drained *sync.Cond

	routed     obs.KeyedCounter // requests per instance id
	remaps     obs.Counter      // moves whose old owner the fence drained
	fenceWaits obs.Counter      // requests that waited on a migration fence
	requests   obs.Counter
}

// projectState is the front's record of a project with requests in
// flight: the member serving them and how many there are.
type projectState struct {
	owner    string
	inflight int
	// fenced marks an entry a resize moved away from its owner whose
	// drain a request has waited on; the move is counted once.
	fenced bool
}

// NewFront builds a front over the members; the initial ring spans all of
// them.
func NewFront(members []*Member) (*Front, error) {
	f := &Front{
		members: make(map[string]*Member),
		states:  make(map[string]projectState),
	}
	f.drained = sync.NewCond(&f.mu)
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
	f.drained.Broadcast()
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
	m := f.acquire(project)
	f.requests.Inc()
	f.routed.Add(m.ID, 1)
	defer f.release(project)
	m.Proxy.ServeHTTP(w, r)
}

// acquire resolves the project's owner under the migration fence and
// registers the request in flight.
func (f *Front) acquire(project string) *Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	want := f.ring.Owner(project)
	waited := false
	for st, ok := f.states[project]; ok && st.owner != want; st, ok = f.states[project] {
		// The ring moved the project while the old owner still has its
		// requests in flight: wait for the drain, then recheck (the ring
		// may have moved again underneath the wait).
		if !st.fenced {
			st.fenced = true
			f.states[project] = st
			f.remaps.Inc()
		}
		waited = true
		f.drained.Wait()
		want = f.ring.Owner(project)
	}
	if waited {
		f.fenceWaits.Inc()
	}
	// The entry, if any, is held by want; a new one starts at zero.
	st := f.states[project]
	st.owner = want
	st.inflight++
	f.states[project] = st
	return f.members[want]
}

// release retires an in-flight request. The project's entry goes when
// its last request does, which wakes the fence waiters.
func (f *Front) release(project string) {
	f.mu.Lock()
	st := f.states[project]
	if st.inflight--; st.inflight > 0 {
		f.states[project] = st
	} else {
		delete(f.states, project)
		f.drained.Broadcast()
	}
	f.mu.Unlock()
}

// Stats is the front's routing accounting.
type Stats struct {
	// Requests is the total routed request count.
	Requests uint64
	// Routed counts requests per instance id.
	Routed map[string]uint64
	// Remaps counts the project moves the fence had to drain: a resize
	// moved the project while its old owner had requests in flight, and
	// a request for it waited. 0 without a resize — the stable-routing
	// invariant loadmon -verify pins.
	Remaps uint64
	// FenceWaits counts requests that waited on a migration fence.
	FenceWaits uint64
}

// Stats snapshots the routing counters.
func (f *Front) Stats() Stats {
	return Stats{
		Requests:   f.requests.Value(),
		Routed:     f.routed.Snapshot(),
		Remaps:     f.remaps.Value(),
		FenceWaits: f.fenceWaits.Value(),
	}
}

// RegisterMetrics exposes the front's routing counters.
func (f *Front) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		w.Counter("fleet_requests_total",
			"Requests routed by the fleet front.", float64(f.requests.Value()))
		w.KeyedCounter("fleet_routed_total",
			"Requests routed per monitor instance.", &f.routed, "instance")
		w.Counter("fleet_remaps_total",
			"Project moves whose old owner's in-flight requests the migration fence drained.", float64(f.remaps.Value()))
		w.Counter("fleet_fence_waits_total",
			"Requests that waited on a migration fence.", float64(f.fenceWaits.Value()))
		f.mu.Lock()
		n := len(f.members)
		f.mu.Unlock()
		w.Gauge("fleet_instances", "Monitor instances in the ring.", float64(n))
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
