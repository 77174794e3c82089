package loadgen

import (
	"fmt"
	"net/http"
	"time"

	"cloudmon/internal/core"
	"cloudmon/internal/faults"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// DeployOptions configures the in-process deployment.
type DeployOptions struct {
	// Mode defaults to monitor.Enforce.
	Mode monitor.Mode
	// Level defaults to monitor.CheckFull.
	Level monitor.CheckLevel
	// FailPolicy decides the monitor's verdict when a snapshot fails
	// (default monitor.FailClosed; Degrade needs PreStateCacheTTL).
	FailPolicy monitor.FailPolicy
	// Post selects when post-conditions are verified (default
	// monitor.PostSync; PostAsync defers them to a bounded worker queue).
	Post monitor.PostMode
	// PostQueueCap / PostWorkers / PostBackpressure tune the async post
	// pipeline (see the matching monitor.Config fields).
	PostQueueCap     int
	PostWorkers      int
	PostBackpressure monitor.BackpressurePolicy
	// PreStateCacheTTL enables the monitor's pre-state read cache.
	PreStateCacheTTL time.Duration
	// DegradeTTL bounds the Degrade policy's stale-cache window (0 =
	// monitor's default of 10 × PreStateCacheTTL).
	DegradeTTL time.Duration
	// CloudTimeout is the shared deadline knob for both cloud-facing
	// paths (0 = default).
	CloudTimeout time.Duration
	// Retry tunes the snapshot provider's backoff loop.
	Retry osclient.RetryPolicy
	// Breaker enables the snapshot circuit breaker.
	Breaker *osclient.BreakerConfig
	// Faults, when non-nil, injects this fault profile into all
	// monitor->cloud traffic (snapshots and forwards) — chaos runs.
	// Role authentication at deploy time bypasses the injector, so a
	// hostile profile cannot fail the deployment itself.
	Faults *faults.Profile
	// QuotaVolumes is the project's volume quota (default 1e6 so the
	// workload never trips quota pre-conditions unless asked to).
	QuotaVolumes int
	// MaxLog bounds the monitor's verdict log (default monitor's 1024;
	// soak tests raise it to retain every verdict).
	MaxLog int
	// AuditDir, when non-empty, opens an obs.AuditLog there and wires it
	// into the monitor; every violation and Unverified outcome of the run
	// lands in the trail. Close the Deployment to flush it.
	AuditDir string
	// AuditMaxBytes bounds audit segments (0 = obs.DefaultAuditMaxBytes).
	AuditMaxBytes int64
}

// Deployment is a ready-to-drive in-process cloud + monitor pair.
type Deployment struct {
	// Cloud is the simulated OpenStack deployment.
	Cloud *openstack.Cloud
	// Sys is the assembled monitor pipeline.
	Sys *core.System
	// ProjectID is the seeded project.
	ProjectID string
	// Target drives the monitor proxy with per-role tokens.
	Target Target
	// Injector is the fault injector perturbing monitor->cloud traffic
	// (nil unless DeployOptions.Faults was set).
	Injector *faults.Injector
	// Audit is the monitor's audit sink (nil unless DeployOptions.AuditDir
	// was set).
	Audit *obs.AuditLog
}

// Close drains the monitor's async post pipeline (so every deferred
// verdict — including its audit record — lands), then flushes and closes
// the deployment's audit sink, if any.
func (d *Deployment) Close() error {
	if d.Sys != nil && d.Sys.Monitor != nil {
		d.Sys.Monitor.Close()
	}
	if d.Audit != nil {
		return d.Audit.Close()
	}
	return nil
}

// Deploy builds the paper's example deployment in process — the simulated
// cloud seeded with Table I's role groups and one user per role — wires
// the monitor over an in-memory HTTP transport, and authenticates one
// client token per role.
func Deploy(opts DeployOptions) (*Deployment, error) {
	quota := opts.QuotaVolumes
	if quota <= 0 {
		quota = 1000000
	}
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "loadgen",
		Quota:       cinder.QuotaSet{Volumes: quota, Gigabytes: 1 << 30},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw", Group: paper.GroupServiceArchitect},
			{Name: "carol", Password: "pw", Group: paper.GroupBusinessAnalyst},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	cloudHTTP := httpkit.HandlerClient(cloud)
	var inj *faults.Injector
	monitorHTTP := cloudHTTP
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: deploy: %w", err)
		}
		inj = faults.NewInjector(opts.Faults)
		monitorHTTP = &http.Client{
			Transport: inj.RoundTripper(httpkit.HandlerRoundTripper(cloud)),
		}
	}
	var audit *obs.AuditLog
	if opts.AuditDir != "" {
		var err error
		audit, err = obs.OpenAuditLog(opts.AuditDir, opts.AuditMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("loadgen: deploy: %w", err)
		}
	}
	sys, err := core.Build(core.Options{
		Model:    paper.CinderModel(),
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
		},
		Mode:             opts.Mode,
		Level:            opts.Level,
		FailPolicy:       opts.FailPolicy,
		Post:             opts.Post,
		PostQueueCap:     opts.PostQueueCap,
		PostWorkers:      opts.PostWorkers,
		PostBackpressure: opts.PostBackpressure,
		CloudTimeout:     opts.CloudTimeout,
		Retry:            opts.Retry,
		Breaker:          opts.Breaker,
		PreStateCacheTTL: opts.PreStateCacheTTL,
		DegradeTTL:       opts.DegradeTTL,
		MaxLog:           opts.MaxLog,
		HTTPClient:       monitorHTTP,
		Audit:            audit,
	})
	if err != nil {
		if audit != nil {
			audit.Close()
		}
		return nil, fmt.Errorf("loadgen: deploy: %w", err)
	}
	tokens := map[string]string{RoleAnonymous: ""}
	for role, user := range map[string]string{RoleAdmin: "alice", RoleMember: "bob", RoleUser: "carol"} {
		auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
		tok, err := auth.Authenticate(user, "pw", seed.ProjectID)
		if err != nil {
			return nil, fmt.Errorf("loadgen: authenticate %s: %w", user, err)
		}
		tokens[role] = tok
	}
	tgt := Target{
		BaseURL:    "http://monitor.internal",
		HTTPClient: httpkit.HandlerClient(sys.Monitor),
		ProjectID:  seed.ProjectID,
		Tokens:     tokens,
		Outcomes:   sys.Monitor.Outcomes,
		Stages:     sys.Monitor.StageSummaries,
		Fetch: func() FetchEconomy {
			fs := sys.Monitor.FetchStats()
			return FetchEconomy{
				Requests:     int(fs.Requests),
				PathsFetched: int(fs.PathsFetched),
				Coalesced:    int(fs.Coalesced),
				Waves:        int(fs.Waves),
				CloudGets:    int(sys.Provider.Stats().Gets),
			}
		},
	}
	if inj != nil {
		tgt.Faults = inj.Counts
	}
	if opts.Post == monitor.PostAsync {
		tgt.Drain = sys.Monitor.DrainPost
		tgt.AsyncPost = sys.Monitor.AsyncPostStats
	}
	if audit != nil {
		tgt.Audit = func() map[string]int {
			out := make(map[string]int)
			for k, v := range audit.Counts() {
				out[k] = int(v)
			}
			return out
		}
	}
	return &Deployment{
		Cloud:     cloud,
		Sys:       sys,
		ProjectID: seed.ProjectID,
		Target:    tgt,
		Injector:  inj,
		Audit:     audit,
	}, nil
}
