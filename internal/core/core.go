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
	// FailPolicy decides the verdict when a state snapshot fails
	// (defaults to monitor.FailClosed).
	FailPolicy monitor.FailPolicy
	// Post selects when post-conditions are verified (defaults to
	// monitor.PostSync; PostAsync defers them to a bounded worker queue
	// and returns responses as soon as the forward completes).
	Post monitor.PostMode
	// CloudTimeout is the one knob both cloud-facing paths derive their
	// deadline from: the deadline of each state-read attempt and of each
	// forward (0 = httpkit.DefaultCloudTimeout via the default clients).
	CloudTimeout time.Duration
	// OnVerdict, if set, receives every verdict (e.g. a
	// monitor.AuditWriter's Record method); see monitor.Config.OnVerdict.
	OnVerdict func(monitor.Verdict)
	// HTTPClient overrides the client of the state reads and the
	// forwards (tests inject the httptest client here). Each read and
	// each forward is one round trip on its transport (httpkit.Send): its
	// Timeout bounds it as a context deadline, and its redirect policy and
	// cookie jar are not used, so a cloud's redirect is the answer the
	// verdict judges.
	HTTPClient *http.Client
	// Audit, when non-nil, is the append-only audit sink the monitor
	// writes every violation and Unverified outcome to (see obs.AuditLog).
	Audit *obs.AuditLog
	// InstanceID names this monitor within a fleet: it is stamped on
	// every audit record and attached to the registry as a constant
	// instance label, so fleet metrics federate and fleet evidence packs
	// attribute each verdict (see monitor.Config.InstanceID).
	InstanceID string
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
	// stage-latency, fetch and audit counters plus the provider's read
	// counters. Serve Metrics.Handler() on /metrics.
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
	client := osclient.New(opts.CloudURL)
	client.HTTPClient = opts.HTTPClient
	client.Timeout = opts.CloudTimeout
	provider := osbinding.NewProvider(client, opts.ServiceAccount)
	// The monitor reads a request's pre-state in one Snapshot call, which
	// pays off at deployment RTT only if its paths travel concurrently.
	// One-path calls never reach the fan-out.
	provider.Parallel = true
	mon, err := monitor.New(monitor.Config{
		Contracts: set,
		Routes:    routes,
		Provider:  provider,
		Forward: &monitor.HTTPForwarder{
			BaseURL: opts.CloudURL,
			Client:  opts.HTTPClient,
			Timeout: opts.CloudTimeout,
		},
		Mode:       opts.Mode,
		Level:      opts.Level,
		FailPolicy: opts.FailPolicy,
		Post:       opts.Post,
		OnVerdict:  opts.OnVerdict,
		Audit:      opts.Audit,
		InstanceID: opts.InstanceID,
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
