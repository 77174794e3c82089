package mutation

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"cloudmon/internal/core"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// Lab is one experimental deployment of the paper's Cinder model: a
// freshly seeded simulated cloud and a cloud monitor in Observe
// (test-oracle) mode, wired in process.
type Lab struct {
	*labEnv
}

// Users of the lab deployment, one per Table-I role.
var labUsers = []openstack.SeedUser{
	{Name: "alice", Password: "pw-alice", Group: paper.GroupProjAdministrator},
	{Name: "bob", Password: "pw-bob", Group: paper.GroupServiceArchitect},
	{Name: "carol", Password: "pw-carol", Group: paper.GroupBusinessAnalyst},
	// The monitor's service account is an administrator so that mutations
	// of the user-facing policy cannot blind the monitor's state reads.
	{Name: "cm-svc", Password: "pw-svc", Group: paper.GroupProjAdministrator},
}

// labQuota is small so the request matrix reaches the full-quota state.
var labQuota = cinder.QuotaSet{Volumes: 3, Gigabytes: 1000}

// LabOptions customizes the lab deployment.
type LabOptions struct {
	// Level ablates the monitor's contract checking (default CheckFull).
	Level monitor.CheckLevel
}

// NewLab builds a deployment with the paper's example model and seed.
func NewLab() (*Lab, error) {
	return NewLabWithOptions(LabOptions{})
}

// NewLabWithOptions builds a lab with the given options.
func NewLabWithOptions(opts LabOptions) (*Lab, error) {
	env, err := newLabEnv(paper.CinderModel(), openstack.Seed{Quota: labQuota}, opts.Level)
	if err != nil {
		return nil, err
	}
	return &Lab{env}, nil
}

// labEnv is what Lab and NovaLab share: the cloud and the monitor over
// it, one token per Table-I role, and the verdict capture the monitor's
// OnVerdict hook feeds.
type labEnv struct {
	// Cloud is the simulated private cloud (mutants are applied to it).
	Cloud *openstack.Cloud
	// Sys is the generated monitoring pipeline.
	Sys *core.System
	// ProjectID is the seeded project.
	ProjectID string

	cloudClient *osclient.Client
	monClient   *osclient.Client
	tokens      map[string]string // role -> token
	requests    int
	capture     *violationCapture
}

// violationCapture is a lab monitor's OnVerdict hook. It keeps the first
// violation, the detection a campaign reports; the hook may be called
// from any request goroutine, so it locks.
type violationCapture struct {
	mu    sync.Mutex
	first string // "<outcome> on <trigger>"
}

func (c *violationCapture) record(v monitor.Verdict) {
	if !v.Outcome.IsViolation() {
		return
	}
	c.mu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf("%s on %s", v.Outcome, v.Trigger)
	}
	c.mu.Unlock()
}

// newLabEnv seeds a cloud and builds the monitor for the model over it.
func newLabEnv(model *uml.Model, seed openstack.Seed, level monitor.CheckLevel) (*labEnv, error) {
	cloud := openstack.New(openstack.Config{})
	seed.ProjectName = "myProject"
	seed.GroupRoles = paper.GroupRole()
	seed.Users = labUsers
	res := cloud.ApplySeed(seed)
	cloudHTTP := httpkit.HandlerClient(cloud)
	capture := &violationCapture{}
	sys, err := core.Build(core.Options{
		Model:    model,
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw-svc", ProjectID: res.ProjectID,
		},
		Mode:       monitor.Observe,
		Level:      level,
		HTTPClient: cloudHTTP,
		OnVerdict:  capture.record,
	})
	if err != nil {
		return nil, fmt.Errorf("mutation: build monitor: %w", err)
	}
	env := &labEnv{
		Cloud:     cloud,
		Sys:       sys,
		ProjectID: res.ProjectID,
		tokens:    make(map[string]string, 3),
		capture:   capture,
	}
	env.cloudClient = osclient.New("http://cloud.internal")
	env.cloudClient.HTTPClient = cloudHTTP
	env.monClient = osclient.New("http://monitor.internal")
	env.monClient.HTTPClient = httpkit.HandlerClient(sys.Monitor)

	for user, role := range map[string]string{
		"alice": paper.RoleAdmin, "bob": paper.RoleMember, "carol": paper.RoleUser,
	} {
		auth := *env.cloudClient
		tok, err := auth.Authenticate(user, "pw-"+user, res.ProjectID)
		if err != nil {
			return nil, fmt.Errorf("mutation: authenticate %s: %w", user, err)
		}
		env.tokens[role] = tok
	}
	return env, nil
}

// violations returns the number of violation verdicts the lab's monitor
// recorded, read from its outcome counters, and the first one's outcome
// and trigger.
func (l *labEnv) violations() (int, string) {
	n := 0
	for outcome, count := range l.Sys.Monitor.Outcomes() {
		if outcome.IsViolation() {
			n += count
		}
	}
	l.capture.mu.Lock()
	defer l.capture.mu.Unlock()
	return n, l.capture.first
}

// as returns a monitor-facing client holding the role's token.
func (l *labEnv) as(role string) *osclient.Client {
	return l.monClient.WithToken(l.tokens[role])
}

// direct returns a cloud-facing client holding the admin token (used for
// scenario setup that is outside the monitored API, e.g. attaching).
func (l *Lab) direct() *osclient.Client {
	return l.cloudClient.WithToken(l.tokens[paper.RoleAdmin])
}

// volumesPath is the monitor-facing collection URI.
func (l *Lab) volumesPath() string {
	return "/projects/" + l.ProjectID + "/volumes"
}

// monitored request helpers; errors are expected for contract-rejected
// requests and are part of the experiment, so they are swallowed.

func (l *Lab) post(role string) string {
	l.requests++
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	in := map[string]map[string]any{"volume": {"name": "vol", "size": 1}}
	_, err := l.as(role).Do(http.MethodPost, l.volumesPath(), in, &out, nil)
	if err != nil {
		return ""
	}
	return out.Volume.ID
}

func (l *Lab) get(role, id string) {
	l.requests++
	_, _ = l.as(role).Do(http.MethodGet, l.volumesPath()+"/"+id, nil, nil, nil)
}

func (l *Lab) put(role, id string) {
	l.requests++
	in := map[string]map[string]any{"volume": {"name": "renamed"}}
	_, _ = l.as(role).Do(http.MethodPut, l.volumesPath()+"/"+id, in, nil, nil)
}

func (l *Lab) del(role, id string) {
	l.requests++
	_, _ = l.as(role).Do(http.MethodDelete, l.volumesPath()+"/"+id, nil, nil, nil)
}

// RunMatrix drives the standard request matrix through the monitor: every
// Table-I (method, role) combination, plus the stateful scenarios — quota
// exhaustion and deletion of an in-use volume. It returns the number of
// requests issued.
func (l *Lab) RunMatrix() int {
	before := l.requests
	pid := l.ProjectID

	// Phase 1: creation by each role (admin/member permitted, user not).
	v1 := l.post(paper.RoleAdmin)
	v2 := l.post(paper.RoleMember)
	l.post(paper.RoleUser)

	// A target volume for read/update/delete phases. Under create-noop
	// mutants no volume exists; fall back to the reported (fake) ID so the
	// requests still exercise the contract.
	target := v1
	if target == "" {
		target = "missing-volume"
	}

	// Phase 2: reads by every role.
	for _, role := range []string{paper.RoleAdmin, paper.RoleMember, paper.RoleUser} {
		l.get(role, target)
	}
	// Phase 3: updates by every role (admin/member permitted).
	for _, role := range []string{paper.RoleUser, paper.RoleMember, paper.RoleAdmin} {
		l.put(role, target)
	}
	// Phase 4: forbidden deletions.
	l.del(paper.RoleMember, target)
	l.del(paper.RoleUser, target)

	// Phase 5: fill the quota, then attempt one more create.
	v3 := l.post(paper.RoleAdmin)
	l.post(paper.RoleAdmin) // over quota -> contract forbids

	// Phase 6: attach the target volume (setup outside the monitored API),
	// attempt DELETE on the in-use volume, detach again.
	direct := l.direct()
	if server, _, err := direct.CreateServer(pid, "lab-server"); err == nil && v1 != "" {
		if _, err := direct.AttachVolume(pid, server.ID, v1); err == nil {
			l.del(paper.RoleAdmin, v1)
			_, _ = direct.DetachVolume(pid, server.ID, v1)
		}
	}

	// Phase 7: legitimate cleanup deletions by the administrator.
	for _, id := range []string{v1, v2, v3} {
		if id != "" {
			l.del(paper.RoleAdmin, id)
		}
	}
	return l.requests - before
}

// RunReport is the outcome of one mutant run.
type RunReport struct {
	MutantID   string
	MutantName string
	Kind       Kind
	Paper      bool
	// Killed reports whether the monitor flagged at least one violation.
	Killed bool
	// Violations is the number of violation verdicts.
	Violations int
	// FirstViolation describes the first detection (outcome + trigger).
	FirstViolation string
	// Requests is the matrix size driven against this mutant.
	Requests int
}

// CampaignReport aggregates a whole campaign.
type CampaignReport struct {
	// BaselineRequests/BaselineViolations are from the clean (unmutated)
	// run; violations here would be false positives.
	BaselineRequests   int
	BaselineViolations int
	Runs               []RunReport
}

// Killed returns the number of killed mutants.
func (r *CampaignReport) Killed() int {
	n := 0
	for _, run := range r.Runs {
		if run.Killed {
			n++
		}
	}
	return n
}

// KillRatio returns killed/total, or 1 for an empty campaign.
func (r *CampaignReport) KillRatio() float64 {
	if len(r.Runs) == 0 {
		return 1
	}
	return float64(r.Killed()) / float64(len(r.Runs))
}

// RunCampaign executes the request matrix against a clean deployment and
// then against one fresh deployment per mutant, collecting kill results.
func RunCampaign(mutants []Mutant) (*CampaignReport, error) {
	return RunCampaignWithOptions(mutants, LabOptions{})
}

// RunCampaignWithOptions runs a campaign with customized lab deployments —
// the ablation harness (e.g. a pre-only monitor).
func RunCampaignWithOptions(mutants []Mutant, opts LabOptions) (*CampaignReport, error) {
	return runCampaign(mutants, func() (campaignLab, error) { return NewLabWithOptions(opts) })
}

// campaignLab is a deployment a campaign drives: Lab and NovaLab.
type campaignLab interface {
	RunMatrix() int
	violations() (int, string)
	cloud() *openstack.Cloud
}

func (l *labEnv) cloud() *openstack.Cloud { return l.Cloud }

// runCampaign drives the request matrix against a clean lab and then
// against one fresh lab per mutant, collecting kill results.
func runCampaign(mutants []Mutant, newLab func() (campaignLab, error)) (*CampaignReport, error) {
	report := &CampaignReport{}
	baseline, err := newLab()
	if err != nil {
		return nil, err
	}
	report.BaselineRequests = baseline.RunMatrix()
	report.BaselineViolations, _ = baseline.violations()

	for _, m := range mutants {
		lab, err := newLab()
		if err != nil {
			return nil, err
		}
		if err := m.Apply(lab.cloud()); err != nil {
			return nil, err
		}
		requests := lab.RunMatrix()
		violations, first := lab.violations()
		report.Runs = append(report.Runs, RunReport{
			MutantID:       m.ID,
			MutantName:     m.Name,
			Kind:           m.Kind,
			Paper:          m.Paper,
			Killed:         violations > 0,
			Violations:     violations,
			FirstViolation: first,
			Requests:       requests,
		})
	}
	return report, nil
}

// MarshalJSON serializes the report for tooling (CI gates on kill rate).
func (r *CampaignReport) MarshalJSON() ([]byte, error) {
	type runDoc struct {
		ID             string `json:"id"`
		Name           string `json:"name"`
		Kind           string `json:"kind"`
		Paper          bool   `json:"paper,omitempty"`
		Killed         bool   `json:"killed"`
		Violations     int    `json:"violations"`
		FirstViolation string `json:"first_violation,omitempty"`
		Requests       int    `json:"requests"`
	}
	doc := struct {
		BaselineRequests   int      `json:"baseline_requests"`
		BaselineViolations int      `json:"baseline_violations"`
		Killed             int      `json:"killed"`
		Total              int      `json:"total"`
		KillRatio          float64  `json:"kill_ratio"`
		Runs               []runDoc `json:"runs"`
	}{
		BaselineRequests:   r.BaselineRequests,
		BaselineViolations: r.BaselineViolations,
		Killed:             r.Killed(),
		Total:              len(r.Runs),
		KillRatio:          r.KillRatio(),
	}
	for _, run := range r.Runs {
		doc.Runs = append(doc.Runs, runDoc{
			ID: run.MutantID, Name: run.MutantName, Kind: run.Kind.String(),
			Paper: run.Paper, Killed: run.Killed, Violations: run.Violations,
			FirstViolation: run.FirstViolation, Requests: run.Requests,
		})
	}
	return json.Marshal(doc)
}

// Format renders the campaign report as the validation table.
func (r *CampaignReport) Format(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-22s %-14s %-6s %-7s %-5s %s\n",
		"ID", "Mutant", "Kind", "Paper", "Killed", "Viol", "First detection")
	fmt.Fprintln(w, strings.Repeat("-", 92))
	for _, run := range r.Runs {
		paperMark := ""
		if run.Paper {
			paperMark = "yes"
		}
		killed := "NO"
		if run.Killed {
			killed = "yes"
		}
		fmt.Fprintf(w, "%-5s %-22s %-14s %-6s %-7s %-5d %s\n",
			run.MutantID, run.MutantName, run.Kind, paperMark, killed,
			run.Violations, run.FirstViolation)
	}
	fmt.Fprintln(w, strings.Repeat("-", 92))
	fmt.Fprintf(w, "killed %d/%d (%.0f%%); baseline: %d requests, %d false positives\n",
		r.Killed(), len(r.Runs), 100*r.KillRatio(),
		r.BaselineRequests, r.BaselineViolations)
}
