package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/osbinding"
)

// layer names the boundary a span was recorded at. Every span is recorded
// by the benchmark around a call into a public seam; nothing inside the
// program is instrumented.
type layer uint8

const (
	// layerClient is the client's call, from request to decoded reply.
	layerClient layer = iota
	// layerFront is fleet.Front.ServeHTTP.
	layerFront
	// layerMonitor is the fleet member's proxy, monitor.Monitor.ServeHTTP.
	layerMonitor
	// layerSnapshot is monitor.StateProvider.Snapshot (osbinding).
	layerSnapshot
	// layerForward is monitor.Forwarder.Forward.
	layerForward
	// layerRoundTrip is the monitor's cloud http.RoundTripper (httpkit).
	layerRoundTrip
	// layerRTT is the simulated network delay inside a round trip.
	layerRTT
	// layerCloud is openstack.Cloud.ServeHTTP.
	layerCloud
	numLayers
)

var layerNames = [numLayers]string{"client", "front", "monitor", "snapshot", "forward", "round_trip", "rtt", "cloud"}

func (l layer) String() string { return layerNames[l] }

// Span flags.
const (
	// flagPost marks a post-state snapshot (pre otherwise).
	flagPost uint8 = 1 << iota
	// flagOffPath marks a span that runs after its request's response
	// returned (async post checks): it and everything under it are left
	// out of the request's latency breakdown.
	flagOffPath
)

// span is one recorded call. Times are nanoseconds since the tracer
// started; ids are dense and a parent always has a smaller id than its
// children, because a parent is opened before any call it makes.
type span struct {
	id, parent, req int32
	layer           layer
	flags           uint8
	start, end      int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanRef is the span a call is made under. req is the client request it
// belongs to (0 when unknown: async post checks); id 0 means "not traced".
type spanRef struct {
	req, id int32
}

type refKey struct{}

func refOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(refKey{}).(spanRef)
	return r
}

// withRef derives a context carrying r. A value context keeps its
// parent's Done channel, so the derived context is cancellable exactly
// when the original was and httpkit's in-memory transport takes the same
// path either way.
func withRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int32
	reqs  atomic.Int32

	mu    sync.Mutex
	spans []span

	// open indexes the traced monitor spans in flight by requester token,
	// project and volume, so a Snapshot call (which carries no context)
	// can be nested under the request it serves.
	openMu sync.Mutex
	open   map[string][]spanRef

	// cancellable counts traced round trips whose request context could
	// be cancelled; httpkit serves those on a separate goroutine, so a
	// non-zero count means tracing changed the code path.
	cancellable atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), open: make(map[string][]spanRef)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int32 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns the spans, sorted by id. Call it once every traced
// caller has returned.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].id < t.spans[j].id })
	return t.spans
}

func openKey(token, project, volume string) string {
	return token + "|" + project + "|" + volume
}

// requestKey derives the open-span key from a monitor-facing request
// path, /projects/{project_id}/volumes[/{volume_id}].
func requestKey(r *http.Request) string {
	segs := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	var proj, vol string
	if len(segs) >= 2 {
		proj = segs[1]
	}
	if len(segs) >= 4 {
		vol = segs[3]
	}
	return openKey(r.Header.Get("X-Auth-Token"), proj, vol)
}

func (t *tracer) openAdd(key string, r spanRef) {
	t.openMu.Lock()
	t.open[key] = append(t.open[key], r)
	t.openMu.Unlock()
}

func (t *tracer) openRemove(key string, id int32) {
	t.openMu.Lock()
	defer t.openMu.Unlock()
	refs := t.open[key]
	for i, r := range refs {
		if r.id == id {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(t.open, key)
	} else {
		t.open[key] = refs
	}
}

// openFind returns the oldest traced monitor span in flight under key.
// Requests that share token, project and volume (concurrent creates on a
// shared project) cannot be told apart here; the span may then nest under
// the other request's monitor span, which moves no time between layers.
func (t *tracer) openFind(key string) (spanRef, bool) {
	t.openMu.Lock()
	defer t.openMu.Unlock()
	refs := t.open[key]
	if len(refs) == 0 {
		return spanRef{}, false
	}
	return refs[0], true
}

// tracedHandler records a span around an http.Handler: the front, a
// monitor, or the simulated cloud. The parent comes from the request
// context.
type tracedHandler struct {
	t     *tracer
	layer layer
	next  http.Handler
	// openSpans registers the span for Snapshot nesting (monitors only).
	openSpans bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := refOf(r.Context())
	if parent.id == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	ref := spanRef{req: parent.req, id: h.t.newID()}
	var key string
	if h.openSpans {
		key = requestKey(r)
		h.t.openAdd(key, ref)
	}
	start := h.t.now()
	h.next.ServeHTTP(w, r.WithContext(withRef(r.Context(), ref)))
	end := h.t.now()
	if h.openSpans {
		h.t.openRemove(key, ref.id)
	}
	h.t.add(span{id: ref.id, parent: parent.id, req: parent.req, layer: h.layer, start: start, end: end})
}

// tracedForwarder records a span around monitor.Forwarder.Forward and
// passes it on in the request context, where the forwarder's cloud
// request picks it up.
type tracedForwarder struct {
	t    *tracer
	next monitor.Forwarder
}

func (f *tracedForwarder) Forward(r *http.Request, route *monitor.Route, params map[string]string) (*monitor.BackendResponse, error) {
	parent := refOf(r.Context())
	if parent.id == 0 {
		return f.next.Forward(r, route, params)
	}
	ref := spanRef{req: parent.req, id: f.t.newID()}
	start := f.t.now()
	resp, err := f.next.Forward(r.WithContext(withRef(r.Context(), ref)), route, params)
	f.t.add(span{id: ref.id, parent: parent.id, req: parent.req, layer: layerForward, start: start, end: f.t.now()})
	return resp, err
}

// providerSlot is one osbinding.Provider of a traced monitor's pool. A
// slot serves one Snapshot call at a time, so its round tripper knows
// which span the call's cloud requests belong to.
type providerSlot struct {
	p   *osbinding.Provider
	ref spanRef
}

// tracedProvider records a span around monitor.StateProvider.Snapshot.
// The provider issues its cloud requests without a context, so each call
// runs on a slot of its own provider: the slot's round tripper then nests
// the requests under the call. Slots outnumber the concurrent callers
// (clients and async post workers), so no call waits for one.
type tracedProvider struct {
	t     *tracer
	slots chan *providerSlot
	async bool
}

// snapshotSlots is the provider pool size of a traced monitor: more than
// the two clients plus the async post queue's default four workers.
const snapshotSlots = 16

func (tp *tracedProvider) Snapshot(ctx *monitor.RequestContext, paths []string) (ocl.MapEnv, error) {
	slot := <-tp.slots
	defer func() { tp.slots <- slot }()
	var parent spanRef
	record := false
	offPath := tp.async && ctx.Phase == monitor.PhasePost
	if offPath {
		record = tp.t.on.Load()
	} else {
		parent, record = tp.t.openFind(openKey(ctx.Token, ctx.Params["project_id"], ctx.Params["volume_id"]))
	}
	if !record {
		return slot.p.Snapshot(ctx, paths)
	}
	s := span{id: tp.t.newID(), parent: parent.id, req: parent.req, layer: layerSnapshot}
	if ctx.Phase == monitor.PhasePost {
		s.flags |= flagPost
	}
	if offPath {
		s.flags |= flagOffPath
	}
	slot.ref = spanRef{req: s.req, id: s.id}
	s.start = tp.t.now()
	env, err := slot.p.Snapshot(ctx, paths)
	s.end = tp.t.now()
	slot.ref = spanRef{}
	tp.t.add(s)
	return env, err
}

// tracedRoundTripper records a span around the monitor's cloud
// http.RoundTripper. Forwarded requests carry their parent in the
// context; snapshot requests take it from their provider slot.
type tracedRoundTripper struct {
	t    *tracer
	slot *providerSlot // nil on the forwarder's client
	next http.RoundTripper
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := refOf(req.Context())
	if parent.id == 0 && rt.slot != nil {
		parent = rt.slot.ref
	}
	if parent.id == 0 {
		return rt.next.RoundTrip(req)
	}
	if req.Context().Done() != nil {
		rt.t.cancellable.Add(1)
	}
	ref := spanRef{req: parent.req, id: rt.t.newID()}
	start := rt.t.now()
	resp, err := rt.next.RoundTrip(req.WithContext(withRef(req.Context(), ref)))
	rt.t.add(span{id: ref.id, parent: parent.id, req: parent.req, layer: layerRoundTrip, start: start, end: rt.t.now()})
	return resp, err
}

// delayTransport simulates the network round trip to the cloud: it holds
// each request for d before handing it on. A sleep ends late by however
// long the host takes to wake the goroutine, and on a shared host that
// lateness follows the neighbours' load from one minute to the next; each
// sleep is therefore shortened by the running mean of the lateness, so the
// delays average d whatever the host does. With a tracer the delay is
// recorded as a span under the round trip.
type delayTransport struct {
	next http.RoundTripper
	d    time.Duration
	t    *tracer
	// late is the running mean of how far a delay overran d, in ns.
	late atomic.Int64
}

func (dt *delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanRef{}
	if dt.t != nil {
		parent = refOf(req.Context())
	}
	start := time.Now()
	time.Sleep(dt.d - time.Duration(dt.late.Load()))
	end := time.Now()
	// Move the mean a sixteenth of the way toward this delay's overrun.
	dt.late.Add(int64(end.Sub(start)-dt.d) / 16)
	if parent.id != 0 {
		dt.t.add(span{id: dt.t.newID(), parent: parent.id, req: parent.req, layer: layerRTT,
			start: int64(start.Sub(dt.t.epoch)), end: int64(end.Sub(dt.t.epoch))})
	}
	return dt.next.RoundTrip(req)
}

// deployTraced assembles the same system as deploy with a span recorder
// at every seam: the front, each member's proxy, its state provider, its
// forwarder, its cloud round tripper and the cloud itself. core.Build
// still derives the contracts and routes; the monitor is then rebuilt
// with monitor.New from the same configuration core.Build passes, except
// that the provider and forwarder are the traced ones.
func deployTraced(w workload, sc *seededCloud, audits []*obs.AuditLog, t *tracer) (*deployment, error) {
	d := &deployment{w: w}
	cloudRT := cloudTransport(w, &tracedHandler{t: t, layer: layerCloud, next: sc.cloud}, t)
	newClient := func(slot *providerSlot) *http.Client {
		return &http.Client{Transport: &tracedRoundTripper{t: t, slot: slot, next: cloudRT}}
	}
	account := osbinding.ServiceAccount{User: "cm-svc", Password: "pw", ProjectID: sc.serviceProject}
	for i, id := range instanceIDs(w) {
		sink := newVerdictSink()
		fwdClient := newClient(nil)
		sys, err := core.Build(buildOptions(w, sc, id, fwdClient, audits[i], sink))
		if err != nil {
			d.closeMonitors()
			return nil, err
		}
		tp := &tracedProvider{t: t, slots: make(chan *providerSlot, snapshotSlots), async: w.post == monitor.PostAsync}
		var providers []*osbinding.Provider
		for range snapshotSlots {
			slot := &providerSlot{}
			slot.p = osbinding.NewProviderWithClient(cloudURL, account, newClient(slot))
			// Authenticate the slot's service account now, so no traced
			// snapshot pays for it.
			warm := &monitor.RequestContext{Phase: monitor.PhasePre, Params: map[string]string{"project_id": sc.serviceProject}}
			if _, err := slot.p.Snapshot(warm, []string{"project.id"}); err != nil {
				sys.Monitor.Close()
				d.closeMonitors()
				return nil, fmt.Errorf("warm provider slot: %w", err)
			}
			providers = append(providers, slot.p)
			tp.slots <- slot
		}
		mon, err := monitor.New(monitor.Config{
			Contracts:  sys.Contracts,
			Routes:     sys.Routes,
			Provider:   tp,
			Forward:    &tracedForwarder{t: t, next: &monitor.HTTPForwarder{BaseURL: cloudURL, Client: fwdClient}},
			Post:       w.post,
			Audit:      audits[i],
			InstanceID: id,
			OnVerdict:  sink.observe,
		})
		if err != nil {
			sys.Monitor.Close()
			d.closeMonitors()
			return nil, err
		}
		d.instances = append(d.instances, &instance{
			id: id, mon: mon, providers: providers, audit: audits[i], sink: sink, spare: sys.Monitor,
		})
	}
	return d, d.finish(t)
}

// layerStats are the per-layer sums of a span set.
type layerStats struct {
	// count and total cover every span of the layer, on and off the
	// response path.
	count, total [numLayers]int64
	// self is the on-path self time: each on-path span's duration minus
	// the durations of its on-path children.
	self [numLayers]int64
	// post* cover post-phase snapshots; offPath counts off-path spans.
	postCount, postTotal int64
	offPath              int64
	// orphans counts on-path spans, other than client spans, whose parent
	// was not recorded: a non-zero count breaks the reconciliation.
	orphans int64
}

// analyze computes the per-layer sums of a span set sorted by id. A span
// is off the response path when it is flagged so or its parent is;
// off-path spans are neither part of their parent's self time nor of any
// on-path layer's.
func analyze(sorted []span) layerStats {
	var st layerStats
	type node struct {
		layer layer
		off   bool
	}
	seen := make(map[int32]node, len(sorted))
	for _, s := range sorted {
		d := s.dur()
		st.count[s.layer]++
		st.total[s.layer] += d
		if s.layer == layerSnapshot && s.flags&flagPost != 0 {
			st.postCount++
			st.postTotal += d
		}
		off := s.flags&flagOffPath != 0
		p, havePar := seen[s.parent]
		if havePar && p.off {
			off = true
		}
		seen[s.id] = node{layer: s.layer, off: off}
		if off {
			st.offPath++
			continue
		}
		st.self[s.layer] += d
		switch {
		case havePar:
			st.self[p.layer] -= d
		case s.layer != layerClient:
			st.orphans++
		}
	}
	return st
}

// writeSpans writes the spans as CSV, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,request,layer,phase,off_path,start_ns,end_ns")
	for _, s := range spans {
		phase := ""
		if s.layer == layerSnapshot {
			phase = monitor.PhasePre
			if s.flags&flagPost != 0 {
				phase = monitor.PhasePost
			}
		}
		fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%t,%d,%d\n", s.id, s.parent, s.req, s.layer, phase, s.flags&flagOffPath != 0, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
