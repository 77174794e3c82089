// Package osbinding binds the cloud monitor to the (simulated) OpenStack
// cloud: it implements monitor.StateProvider by resolving the OCL
// navigation paths of the paper's models to live REST queries, and derives
// the monitor's proxy routes from the generated contracts.
//
// Path bindings (Section IV.B semantics — each value is observed through
// the cloud's own API, so "the stateless nature of REST remains
// uncompromised"):
//
//	project.id        GET  /identity/v3/projects/{project_id}
//	                  200 -> the project id; otherwise OclUndefined
//	project.volumes   GET  /volume/v3/{project_id}/volumes
//	                  200 -> collection of volume ids
//	quota_sets.volume GET  /volume/v3/{project_id}/quota_sets
//	                  200 -> the volume quota integer
//	volume.status     GET  /volume/v3/{project_id}/volumes/{volume_id}
//	                  200 -> the status string; otherwise OclUndefined
//	user.id.groups    GET  /identity/v3/auth/tokens (X-Subject-Token =
//	                  requester token) -> the requester's project roles
//
// The provider authenticates as a dedicated monitoring service account
// with read access, exactly like a real monitoring deployment would.
package osbinding

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/osclient"
	"cloudmon/internal/uml"
)

// ServiceAccount is the monitor's own identity on the cloud.
type ServiceAccount struct {
	User     string
	Password string
	// ProjectID scopes the account's token.
	ProjectID string
}

// Provider implements monitor.StateProvider over the cloud's REST APIs.
type Provider struct {
	client  *osclient.Client
	account ServiceAccount

	// Parallel resolves the paths of one Snapshot call concurrently, on
	// at most DefaultMaxParallel workers: the call then costs the slowest
	// read instead of the sum, and reads every path even when one fails.
	// core.Build sets it, since the monitor reads each pre clause's paths
	// in one call; the constructors leave it off, so a caller that times
	// each call as one sequence of reads (a tracer subtracting nested
	// spans) still can. Unset, a call stops at its first failed path.
	Parallel bool

	// Retry configures the backoff loop every cloud read runs under. The
	// zero value selects the defaults (3 attempts, 10ms base, 4x growth,
	// ±50% jitter); set MaxAttempts to 1 to disable retries.
	Retry osclient.RetryPolicy

	// Breaker, when non-nil, sheds snapshot reads while the cloud is down
	// instead of queueing retries against it; shed reads surface as
	// snapshot errors, which the monitor resolves through its fail
	// policy.
	Breaker *osclient.Breaker

	mu sync.Mutex
	// token caches the service-account token; refreshed on 401.
	token string

	// Lock-free observability counters over the retry loop (exported via
	// RegisterMetrics).
	attempts      obs.Counter
	retries       obs.Counter
	authRefreshes obs.Counter
	gets          obs.Counter
}

// ProviderStats snapshots the retry-loop counters.
type ProviderStats struct {
	// Attempts counts cloud-read attempts, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first for an operation.
	Retries uint64 `json:"retries"`
	// AuthRefreshes counts 401-triggered token invalidations.
	AuthRefreshes uint64 `json:"auth_refreshes"`
	// Gets counts state-path resolutions — one per navigation path read,
	// each one REST GET against the cloud (before retries). The lazy
	// monitor's fetch economy is measured against this.
	Gets uint64 `json:"gets"`
}

// Stats snapshots the provider's counters.
func (p *Provider) Stats() ProviderStats {
	return ProviderStats{
		Attempts:      p.attempts.Value(),
		Retries:       p.retries.Value(),
		AuthRefreshes: p.authRefreshes.Value(),
		Gets:          p.gets.Value(),
	}
}

// RegisterMetrics exposes the provider's retry and breaker state on the
// registry. Breaker state is sampled at scrape time (gauge: 0 closed,
// 1 half-open, 2 open).
func (p *Provider) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		w.Counter("cloudmon_snapshot_attempts_total",
			"Cloud read attempts by the snapshot provider, including retries.",
			float64(p.attempts.Value()))
		w.Counter("cloudmon_snapshot_retries_total",
			"Snapshot read attempts beyond the first for an operation.",
			float64(p.retries.Value()))
		w.Counter("cloudmon_snapshot_auth_refresh_total",
			"Service-token refreshes triggered by 401 responses.",
			float64(p.authRefreshes.Value()))
		w.Counter("cloudmon_cloud_gets_total",
			"State-path reads issued against the cloud (one REST GET each, before retries).",
			float64(p.gets.Value()))
		if p.Breaker != nil {
			var state float64
			switch p.Breaker.State() {
			case osclient.StateHalfOpen:
				state = 1
			case osclient.StateOpen:
				state = 2
			}
			w.Gauge("cloudmon_breaker_state",
				"Snapshot circuit breaker state: 0 closed, 1 half-open, 2 open.",
				state)
			w.Counter("cloudmon_breaker_shed_total",
				"Snapshot reads shed while the breaker was open.",
				float64(p.Breaker.Shed()))
		}
	})
}

var _ monitor.StateProvider = (*Provider)(nil)

// NewProvider returns a provider for the cloud at baseURL, authenticating
// with the service account on demand.
func NewProvider(baseURL string, account ServiceAccount) *Provider {
	return NewProviderWithClient(baseURL, account, nil)
}

// NewProviderWithClient is NewProvider with an explicit HTTP client
// (httptest servers inject their client here).
func NewProviderWithClient(baseURL string, account ServiceAccount, httpClient *http.Client) *Provider {
	c := osclient.New(baseURL)
	c.HTTPClient = httpClient
	return &Provider{
		client:  c,
		account: account,
	}
}

// authedClient returns a client carrying a valid service token,
// re-authenticating if needed.
func (p *Provider) authedClient() (*osclient.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.token == "" {
		tok, err := p.client.Authenticate(p.account.User, p.account.Password, p.account.ProjectID)
		if err != nil {
			return nil, fmt.Errorf("osbinding: service-account auth: %w", err)
		}
		p.token = tok
	}
	return p.client.WithToken(p.token), nil
}

// invalidateToken drops the cached token after a 401.
func (p *Provider) invalidateToken() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.token = ""
}

// withRetry runs fn — a read against the cloud — with an authenticated
// client under the provider's retry policy. All current callers are GET
// resolvers, hence idempotent.
func (p *Provider) withRetry(fn func(c *osclient.Client) error) error {
	return p.retryDo(true, fn)
}

// retryDo is the provider's retry loop: exponential backoff with jitter,
// a fresh per-attempt context deadline, an optional wall-clock budget,
// and re-authentication whenever the cloud answers 401 (expired service
// token — a pre-application failure, so re-sending is always safe).
//
// idempotent declares whether fn may be re-sent after a failure that
// could already have been applied. Non-idempotent operations (POST/PUT
// writes) are retried only on a 401 response: the cloud rejected the
// token before acting on the body, so the first attempt provably had no
// effect. A transport error or 5xx on a write is NOT retried — the write
// may have landed, and re-sending it is the double-apply bug.
func (p *Provider) retryDo(idempotent bool, fn func(c *osclient.Client) error) error {
	pol := p.Retry.WithDefaults()
	var deadline time.Time
	if pol.Budget > 0 {
		deadline = time.Now().Add(pol.Budget)
	}
	for attempt := 1; ; attempt++ {
		if p.Breaker != nil && !p.Breaker.Allow() {
			return fmt.Errorf("osbinding: snapshot shed: %w", osclient.ErrCircuitOpen)
		}
		p.attempts.Inc()
		if attempt > 1 {
			p.retries.Inc()
		}
		c, err := p.authedClient()
		if err == nil {
			if pol.PerAttemptTimeout > 0 {
				cp := *c
				cp.Timeout = pol.PerAttemptTimeout
				c = &cp
			}
			err = fn(c)
		}
		if p.Breaker != nil {
			p.Breaker.Record(!osclient.Infrastructure(err))
		}
		if err == nil {
			return nil
		}
		if osclient.IsStatus(err, http.StatusUnauthorized) {
			p.invalidateToken()
			p.authRefreshes.Inc()
		}
		if !osclient.RetryableFor(err, idempotent) || attempt >= pol.MaxAttempts {
			return err
		}
		sleep := pol.Backoff(attempt, nil)
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			return err
		}
		time.Sleep(sleep)
	}
}

// Snapshot implements monitor.StateProvider. Paths are independent REST
// reads; with Parallel set they are resolved concurrently.
func (p *Provider) Snapshot(ctx *monitor.RequestContext, paths []string) (ocl.MapEnv, error) {
	if !p.Parallel || len(paths) < 2 {
		env := make(ocl.MapEnv, len(paths))
		for _, path := range paths {
			v, err := p.resolve(ctx, path)
			if err != nil {
				return nil, fmt.Errorf("osbinding: resolve %s: %w", path, err)
			}
			env[path] = v
		}
		return env, nil
	}
	type result struct {
		path string
		val  ocl.Value
		err  error
	}
	results := make([]result, len(paths))
	workers := min(DefaultMaxParallel, len(paths))
	// Bounded pool: `workers` goroutines pull path indices off a shared
	// atomic counter until the list is drained.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				v, err := p.resolve(ctx, paths[i])
				results[i] = result{path: paths[i], val: v, err: err}
			}
		}()
	}
	wg.Wait()
	env := make(ocl.MapEnv, len(paths))
	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("osbinding: resolve %s: %w", r.path, r.err)
		}
		env[r.path] = r.val
	}
	return env, nil
}

// DefaultMaxParallel bounds the worker pool of a Parallel snapshot, so a
// contract with many paths cannot fan out an unbounded goroutine burst per
// request (which multiplies under concurrent proxy load).
const DefaultMaxParallel = 8

// resolve maps one navigation path to a value. Unknown paths and missing
// resources are OclUndefined, never errors — that is how "GET was not 200"
// enters the formulas.
func (p *Provider) resolve(ctx *monitor.RequestContext, path string) (ocl.Value, error) {
	p.gets.Inc()
	switch path {
	case "project.id":
		return p.resolveProjectID(ctx)
	case "project.volumes":
		return p.resolveProjectVolumes(ctx)
	case "project.servers":
		return p.resolveProjectServers(ctx)
	case "quota_sets.volume":
		return p.resolveQuota(ctx)
	case "volume.status":
		return p.resolveVolumeStatus(ctx)
	case "server.status":
		return p.resolveServerStatus(ctx)
	case "user.id.groups":
		return p.resolveUserGroups(ctx)
	default:
		return ocl.Undefined(), nil
	}
}

func (p *Provider) resolveProjectID(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		proj, _, err := c.GetProject(pid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(proj.ID)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveProjectVolumes(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		vols, _, err := c.ListVolumes(pid)
		if err != nil {
			return err
		}
		ids := make([]ocl.Value, len(vols))
		for i, v := range vols {
			ids[i] = ocl.StringVal(v.ID)
		}
		out = ocl.CollectionVal(ids...)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveProjectServers(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		servers, _, err := c.ListServers(pid)
		if err != nil {
			return err
		}
		ids := make([]ocl.Value, len(servers))
		for i, s := range servers {
			ids[i] = ocl.StringVal(s.ID)
		}
		out = ocl.CollectionVal(ids...)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveServerStatus(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	sid := ctx.Params["server_id"]
	if pid == "" || sid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		s, _, err := c.GetServer(pid, sid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(s.Status)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveQuota(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		q, _, err := c.GetQuota(pid)
		if err != nil {
			return err
		}
		out = ocl.IntVal(q.Volumes)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveVolumeStatus(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	vid := ctx.Params["volume_id"]
	if pid == "" || vid == "" {
		// POST on the collection has no volume id; the formula's
		// volume.status conjuncts then evaluate over OclUndefined.
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		v, _, err := c.GetVolume(pid, vid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(v.Status)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

// resolveUserGroups resolves the requester's roles in the project. The
// paper's guards write `user.id.groups='admin'` where 'admin' is the role
// the user's group holds (Table I maps groups to roles); Keystone reports
// those roles in token validation.
func (p *Provider) resolveUserGroups(ctx *monitor.RequestContext) (ocl.Value, error) {
	if ctx.Token == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		tok, err := c.ValidateToken(ctx.Token)
		if err != nil {
			return err
		}
		out = ocl.StringsVal(tok.Roles...)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		// Invalid requester token: no roles.
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

// Routes derives the monitor's proxy routes from the generated contracts:
// the monitor-facing pattern is the model URI (POST uses the parent
// collection, since creation addresses the collection), and the backend
// template is the cloud's cinder URI.
func Routes(set *contract.Set) []monitor.Route {
	routes := make([]monitor.Route, 0, len(set.Contracts))
	for _, c := range set.Contracts {
		pattern := c.URI
		if c.Trigger.Method == uml.POST {
			pattern = parentOf(pattern)
		}
		routes = append(routes, monitor.Route{
			Trigger: c.Trigger,
			Pattern: pattern,
			Backend: backendFor(pattern),
		})
	}
	return routes
}

// parentOf strips the trailing path segment (the item id).
func parentOf(uri string) string {
	idx := strings.LastIndex(uri, "/")
	if idx <= 0 {
		return uri
	}
	return uri[:idx]
}

// backendFor maps a model URI onto the simulated cloud's service APIs:
// paths under a project route to cinder (/volume/v3) by default and to
// nova (/compute/v2.1) when they address the servers subtree.
func backendFor(pattern string) string {
	const prefix = "/projects/"
	if !strings.HasPrefix(pattern, prefix) {
		return pattern
	}
	rest := pattern[len(prefix):]
	if strings.Contains(pattern, "/servers") {
		return "/compute/v2.1/" + rest
	}
	return "/volume/v3/" + rest
}
