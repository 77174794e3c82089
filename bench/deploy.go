package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/fleet"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// Base URLs of the in-memory deployment; no request ever leaves the
// process.
const (
	cloudURL   = "http://cloud.internal"
	monitorURL = "http://monitor.internal"
)

// project is one tenant project with a token per role (OpenStack tokens
// are project-scoped). The anonymous role has no entry and sends none.
type project struct {
	id     string
	tokens map[string]string
}

// seededCloud is the simulated cloud before any monitor exists: the
// example deployment's users and role grants, the workload's projects,
// and each client's starting pools.
type seededCloud struct {
	cloud          *openstack.Cloud
	serviceProject string
	// projects[c] are the projects client c addresses; on a shared
	// workload both clients hold the same project.
	projects [clients][]project
	// pools[c][p] are the volumes client c owns in projects[c][p].
	pools [clients][][]string
}

// seedCloud builds and seeds the simulated cloud for a workload. Every
// client pool starts in the middle of the workload's volume band.
func seedCloud(w workload) (*seededCloud, error) {
	quota := cinder.QuotaSet{Volumes: 1_000_000, Gigabytes: 1 << 30}
	cloud := openstack.New(openstack.Config{})
	base := cloud.ApplySeed(openstack.Seed{
		ProjectName: "bench",
		Quota:       quota,
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	sc := &seededCloud{cloud: cloud, serviceProject: base.ProjectID}
	auth := osclient.Client{BaseURL: cloudURL, HTTPClient: httpkit.HandlerClient(cloud)}
	newProject := func(name string) (project, error) {
		p := cloud.Identity.CreateProject(name)
		cloud.Volumes.SetQuota(p.ID, quota)
		for group, role := range paper.GroupRole() {
			cloud.Identity.AssignRole(p.ID, group, role)
		}
		tokens := make(map[string]string, 3)
		for role, user := range map[string]string{roleAdmin: "alice", roleMember: "bob", roleUser: "carol"} {
			tok, err := auth.Authenticate(user, "pw", p.ID)
			if err != nil {
				return project{}, fmt.Errorf("authenticate %s in %s: %w", user, name, err)
			}
			tokens[role] = tok
		}
		return project{id: p.ID, tokens: tokens}, nil
	}
	var shared project
	if w.shared {
		var err error
		if shared, err = newProject("tenant-shared"); err != nil {
			return nil, err
		}
	}
	// Project ids are random, so the fleet front's rendezvous hash would
	// place them on members at random. Each client instead takes the same
	// number of projects on every member: the load each member sees, and
	// with it each member's share of memory and CPU, is then the same in
	// every run.
	var ring *fleet.Ring
	if w.instances > 0 {
		var err error
		if ring, err = fleet.NewRing(instanceIDs(w)); err != nil {
			return nil, err
		}
	}
	start := (w.lo + w.hi) / 2
	for c := range clients {
		placed := make(map[string]int)
		for n := 0; len(sc.projects[c]) < w.projectsPerClient; n++ {
			p := shared
			if !w.shared {
				var err error
				if p, err = newProject(fmt.Sprintf("tenant-c%d-%d", c, n)); err != nil {
					return nil, err
				}
				if ring != nil {
					owner := ring.Owner(p.id)
					if placed[owner] == w.projectsPerClient/w.instances {
						continue
					}
					placed[owner]++
				}
			}
			pool := make([]string, 0, w.hi)
			for v := range start {
				vol, err := cloud.Volumes.Create(p.id, fmt.Sprintf("seed-c%d-%d", c, v), 1)
				if err != nil {
					return nil, fmt.Errorf("seed volume in %s: %w", p.id, err)
				}
				pool = append(pool, vol.ID)
			}
			sc.projects[c] = append(sc.projects[c], p)
			sc.pools[c] = append(sc.pools[c], pool)
		}
	}
	return sc, nil
}

// verdictSink counts one instance's verdicts through the monitor's
// OnVerdict hook and, while sampling is on, keeps each verdict's
// detection lag.
type verdictSink struct {
	mu        sync.Mutex
	total     int
	byOutcome map[monitor.Outcome]int
	// opened is when lag sampling started; zero when it is off.
	opened time.Time
	lags   []sample
}

func newVerdictSink() *verdictSink {
	return &verdictSink{byOutcome: make(map[monitor.Outcome]int)}
}

func (s *verdictSink) observe(v monitor.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	s.byOutcome[v.Outcome]++
	if lag, ok := detectionLag(&v); ok && !s.opened.IsZero() {
		s.lags = append(s.lags, sample{at: int64(time.Since(s.opened)), d: lag})
	}
}

// startSampling starts keeping detection lags, timed from opened.
func (s *verdictSink) startSampling(opened time.Time) {
	s.mu.Lock()
	s.opened = opened
	s.mu.Unlock()
}

// stopSampling stops keeping detection lags.
func (s *verdictSink) stopSampling() {
	s.mu.Lock()
	s.opened = time.Time{}
	s.mu.Unlock()
}

// detectionLag is how long after the cloud's answer the verdict on the
// request's effect landed. A late (async) verdict carries it as
// DetectionLag, measured from the response's return. A synchronous
// verdict is decided before the response returns, after the post-state
// snapshot and post-condition evaluation that follow the forward, so its
// lag is the sum of those two stages. Requests without a post phase
// (blocked, shed) have none.
func detectionLag(v *monitor.Verdict) (time.Duration, bool) {
	if v.Late {
		return v.DetectionLag, !v.Shed
	}
	if v.Outcome != monitor.OK && v.Outcome != monitor.ViolationPostcondition {
		return 0, false
	}
	if !v.Forwarded || !v.PreOK {
		return 0, false
	}
	return v.Trace[obs.StagePostSnapshot] + v.Trace[obs.StagePostEval], true
}

// instance is one monitor of the deployment.
type instance struct {
	id        string
	mon       *monitor.Monitor
	providers []*osbinding.Provider
	audit     *obs.AuditLog
	sink      *verdictSink
	// spare is the monitor core.Build assembled when the traced
	// deployment replaced it with one wired through span wrappers; it
	// serves nothing and is closed with the deployment.
	spare *monitor.Monitor
}

// deployment is the assembled system under test.
type deployment struct {
	w         workload
	handler   http.Handler // what the clients call: the front or the monitor
	front     *fleet.Front
	instances []*instance
}

// close drains and stops every monitor and closes the audit logs, so the
// trails are complete on disk.
func (d *deployment) close() error {
	d.closeMonitors()
	var firstErr error
	for _, in := range d.instances {
		if err := in.audit.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// closeMonitors drains and stops the monitors but leaves the audit logs,
// which the caller owns, open.
func (d *deployment) closeMonitors() {
	for _, in := range d.instances {
		in.mon.Close()
		if in.spare != nil {
			in.spare.Close()
		}
	}
}

// closeAudits closes audit logs on an error path; the success path closes
// them through deployment.close, which reports their errors.
func closeAudits(logs []*obs.AuditLog) {
	for _, l := range logs {
		_ = l.Close() // closing twice is a no-op
	}
}

// instanceIDs names the workload's monitors: fleet members get ids, a
// lone monitor has none.
func instanceIDs(w workload) []string {
	if w.instances == 0 {
		return []string{""}
	}
	ids := make([]string, w.instances)
	for i := range ids {
		ids[i] = fmt.Sprintf("m-%02d", i)
	}
	return ids
}

// openAudits opens one audit log per instance under dir.
func openAudits(w workload, dir string) ([]*obs.AuditLog, error) {
	var logs []*obs.AuditLog
	for i, id := range instanceIDs(w) {
		if id == "" {
			id = fmt.Sprintf("m-%02d", i)
		}
		l, err := obs.OpenAuditLog(filepath.Join(dir, id), 0)
		if err != nil {
			closeAudits(logs)
			return nil, err
		}
		logs = append(logs, l)
	}
	return logs, nil
}

// cloudTransport is the monitor's way to the simulated cloud: httpkit's
// in-memory handler transport behind the simulated round-trip delay.
func cloudTransport(w workload, cloud http.Handler, t *tracer) http.RoundTripper {
	var rt http.RoundTripper = httpkit.HandlerRoundTripper(cloud)
	if w.rtt > 0 {
		rt = &delayTransport{next: rt, d: w.rtt, t: t}
	}
	return rt
}

// buildOptions are the core.Build options every deployment shares: the
// paper's Cinder model and service account, the workload's post mode,
// and the instance's audit sink and verdict hook. No engine or ablation
// knob is set, so the repository's defaults are what gets measured.
func buildOptions(w workload, sc *seededCloud, id string, client *http.Client, audit *obs.AuditLog, sink *verdictSink) core.Options {
	return core.Options{
		Model:    paper.CinderModel(),
		CloudURL: cloudURL,
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw", ProjectID: sc.serviceProject,
		},
		Post:       w.post,
		HTTPClient: client,
		Audit:      audit,
		InstanceID: id,
		OnVerdict:  sink.observe,
	}
}

// deploy assembles the monitors, and the front for a fleet workload,
// through the repository's own assembly (core.Build and fleet.NewFront).
func deploy(w workload, sc *seededCloud, audits []*obs.AuditLog) (*deployment, error) {
	d := &deployment{w: w}
	client := &http.Client{Transport: cloudTransport(w, sc.cloud, nil)}
	for i, id := range instanceIDs(w) {
		sink := newVerdictSink()
		sys, err := core.Build(buildOptions(w, sc, id, client, audits[i], sink))
		if err != nil {
			d.closeMonitors()
			return nil, err
		}
		d.instances = append(d.instances, &instance{
			id: id, mon: sys.Monitor, providers: []*osbinding.Provider{sys.Provider},
			audit: audits[i], sink: sink,
		})
	}
	return d, d.finish(nil)
}

// finish puts the front (fleet workloads) or the lone monitor in front of
// the clients. With a tracer, each monitor and the front are wrapped in
// span recorders.
func (d *deployment) finish(t *tracer) error {
	if d.w.instances == 0 {
		d.handler = d.instances[0].mon
		if t != nil {
			d.handler = &tracedHandler{t: t, layer: layerMonitor, next: d.handler, openSpans: true}
		}
		return nil
	}
	members := make([]*fleet.Member, len(d.instances))
	for i, in := range d.instances {
		var proxy http.Handler = in.mon
		if t != nil {
			proxy = &tracedHandler{t: t, layer: layerMonitor, next: proxy, openSpans: true}
		}
		members[i] = &fleet.Member{ID: in.id, Proxy: proxy}
	}
	front, err := fleet.NewFront(members)
	if err != nil {
		d.closeMonitors()
		return err
	}
	d.front = front
	d.handler = front
	if t != nil {
		d.handler = &tracedHandler{t: t, layer: layerFront, next: front}
	}
	return nil
}

// timedSetup assembles the deployment reps times and returns the last one
// with the median assembly time: model, contracts, compiled plans,
// monitors and front. Seeding the cloud and opening the audit logs come
// before the clock starts; the discarded assemblies are closed.
func timedSetup(w workload, sc *seededCloud, audits []*obs.AuditLog, reps int) (*deployment, float64, error) {
	times := make([]float64, 0, reps)
	var d *deployment
	for range reps {
		if d != nil {
			d.closeMonitors() // a discarded assembly; the audit logs stay open
		}
		// Start every assembly from a collected heap, so a collection
		// left over from the previous one does not land in its time.
		runtime.GC()
		start := time.Now()
		var err error
		d, err = deploy(w, sc, audits)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, median(times), nil
}

// auditBytes sums the audit trail's size on disk.
func auditBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
