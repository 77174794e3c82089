// Package core is the top of the cloud-monitor pipeline: it takes the
// design models an analyst produced (programmatically, or imported from
// XMI), generates the method contracts, and wires a ready-to-serve cloud
// monitor against a private cloud URL.
//
// It is the API the examples and CLIs use:
//
//	sys, err := core.Build(core.Options{
//	    Model:    paper.CinderModel(),
//	    CloudURL: "http://cloud:8080",
//	    ServiceAccount: osbinding.ServiceAccount{...},
//	})
//	http.ListenAndServe(":9090", sys.Monitor)
package core

import (
	"fmt"
	"net/http"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/uml"
)

// Options configures Build.
type Options struct {
	// Model is the validated design model (resource + behavioral).
	Model *uml.Model
	// CloudURL is the private cloud's base URL.
	CloudURL string
	// ServiceAccount is the monitor's read-access identity on the cloud.
	ServiceAccount osbinding.ServiceAccount
	// Mode defaults to monitor.Enforce.
	Mode monitor.Mode
	// Level defaults to monitor.CheckFull; CheckPreOnly ablates the
	// post-condition verification.
	Level monitor.CheckLevel
	// Eval selects the evaluation engine (defaults to
	// monitor.EvalCompiled; monitor.EvalLazy re-walks the OCL trees,
	// monitor.EvalEager restores whole-contract snapshots).
	Eval monitor.EvalMode
	// NoFacts disables compile-time fact pruning in the lazy engine
	// (static clause assignment and witness-based sibling skips) — the
	// A/B knob behind EXPERIMENTS.md E16.
	NoFacts bool
	// NoPostReuse disables the post-check's effect-frame reuse: every
	// contract path is re-fetched after the forward (the full re-check
	// the paper's workflow describes; see monitor.Config.NoPostReuse).
	NoPostReuse bool
	// FailPolicy decides the verdict when a state snapshot fails
	// (defaults to monitor.FailClosed; Degrade requires
	// PreStateCacheTTL > 0).
	FailPolicy monitor.FailPolicy
	// Post selects when post-conditions are verified (defaults to
	// monitor.PostSync; PostAsync defers them to a bounded worker queue
	// and returns responses as soon as the forward completes).
	Post monitor.PostMode
	// PostQueueCap / PostWorkers / PostBackpressure tune the async post
	// pipeline (see the matching monitor.Config fields).
	PostQueueCap     int
	PostWorkers      int
	PostBackpressure monitor.BackpressurePolicy
	// CloudTimeout is the one knob both cloud-facing paths derive their
	// deadline from: the snapshot client's per-attempt deadline and the
	// forwarder's per-request deadline (0 = httpkit.DefaultCloudTimeout
	// via the default clients).
	CloudTimeout time.Duration
	// Retry tunes the snapshot provider's backoff loop (zero value =
	// defaults; MaxAttempts 1 disables retries).
	Retry osclient.RetryPolicy
	// Breaker, when non-nil, puts a circuit breaker on the snapshot path
	// so a dead cloud sheds reads instead of queueing retries.
	Breaker *osclient.BreakerConfig
	// OnVerdict, if set, receives every verdict (e.g. an
	// monitor.AuditWriter's Record method).
	OnVerdict func(monitor.Verdict)
	// PreStateCacheTTL, when positive, enables the monitor's short-TTL
	// pre-state read cache (see monitor.Config.PreStateCacheTTL).
	PreStateCacheTTL time.Duration
	// DegradeTTL bounds the Degrade policy's stale-cache window (see
	// monitor.Config.DegradeTTL; 0 = 10 × PreStateCacheTTL).
	DegradeTTL time.Duration
	// HTTPClient overrides the forwarding client (tests inject the
	// httptest client here).
	HTTPClient *http.Client
	// MaxLog bounds the verdict log.
	MaxLog int
	// Audit, when non-nil, is the append-only audit sink the monitor
	// writes every violation and Unverified outcome to (see obs.AuditLog).
	Audit *obs.AuditLog
	// InstanceID names this monitor within a fleet: it is stamped on
	// every audit record and attached to the registry as a constant
	// instance label, so fleet metrics federate and fleet evidence packs
	// attribute each verdict (see monitor.Config.InstanceID).
	InstanceID string
	// OnInvalidate receives the project id of every forwarded write —
	// the fleet's cross-instance invalidation hook (see
	// monitor.Config.OnInvalidate).
	OnInvalidate func(project string)
}

// System is the assembled pipeline.
type System struct {
	// Model is the source model.
	Model *uml.Model
	// Contracts are the generated method contracts.
	Contracts *contract.Set
	// Monitor is the ready-to-serve proxy.
	Monitor *monitor.Monitor
	// Provider is the state binding (exported so callers can reuse it,
	// e.g. the mutation driver snapshots state through it).
	Provider *osbinding.Provider
	// Routes are the derived proxy routes.
	Routes []monitor.Route
	// Metrics is the system's metric registry: the monitor's verdict,
	// stage-latency, cache, and audit counters plus the provider's retry
	// and breaker state. Serve Metrics.Handler() on /metrics.
	Metrics *obs.Registry
}

// Build runs the pipeline: validate model -> generate contracts -> derive
// routes -> bind state provider -> assemble monitor.
func Build(opts Options) (*System, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("core: missing model")
	}
	if opts.CloudURL == "" {
		return nil, fmt.Errorf("core: missing cloud URL")
	}
	set, err := contract.Generate(opts.Model)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	routes := osbinding.Routes(set)
	provider := osbinding.NewProvider(opts.CloudURL, opts.ServiceAccount)
	if opts.HTTPClient != nil {
		// The provider's embedded client shares the HTTP client.
		provider = osbinding.NewProviderWithClient(opts.CloudURL, opts.ServiceAccount, opts.HTTPClient)
	}
	// The monitor reads each pre clause's paths in one Snapshot call (a
	// wave), which pays off at deployment RTT only if they travel
	// concurrently. One-path calls never reach the fan-out.
	provider.Parallel = true
	provider.Retry = opts.Retry
	if opts.CloudTimeout > 0 && provider.Retry.PerAttemptTimeout <= 0 {
		provider.Retry.PerAttemptTimeout = opts.CloudTimeout
	}
	if opts.Breaker != nil {
		provider.Breaker = osclient.NewBreaker(*opts.Breaker)
	}
	mon, err := monitor.New(monitor.Config{
		Contracts: set,
		Routes:    routes,
		Provider:  provider,
		Forward: &monitor.HTTPForwarder{
			BaseURL: opts.CloudURL,
			Client:  opts.HTTPClient,
			Timeout: opts.CloudTimeout,
		},
		Mode:             opts.Mode,
		Level:            opts.Level,
		Eval:             opts.Eval,
		NoFacts:          opts.NoFacts,
		NoPostReuse:      opts.NoPostReuse,
		FailPolicy:       opts.FailPolicy,
		Post:             opts.Post,
		PostQueueCap:     opts.PostQueueCap,
		PostWorkers:      opts.PostWorkers,
		PostBackpressure: opts.PostBackpressure,
		MaxLog:           opts.MaxLog,
		OnVerdict:        opts.OnVerdict,
		PreStateCacheTTL: opts.PreStateCacheTTL,
		DegradeTTL:       opts.DegradeTTL,
		Audit:            opts.Audit,
		InstanceID:       opts.InstanceID,
		OnInvalidate:     opts.OnInvalidate,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	reg := &obs.Registry{}
	if opts.InstanceID != "" {
		reg.SetConstLabels(obs.L("instance", opts.InstanceID))
	}
	mon.RegisterMetrics(reg)
	provider.RegisterMetrics(reg)
	return &System{
		Model:     opts.Model,
		Contracts: set,
		Monitor:   mon,
		Provider:  provider,
		Routes:    routes,
		Metrics:   reg,
	}, nil
}
