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
//	project.servers   GET  /compute/v2.1/{project_id}/servers
//	                  200 -> collection of server ids
//	quota_sets.volume GET  /volume/v3/{project_id}/quota_sets
//	                  200 -> the volume quota integer
//	volume.status     GET  /volume/v3/{project_id}/volumes/{volume_id}
//	                  200 -> the status string; otherwise OclUndefined
//	server.status     GET  /compute/v2.1/{project_id}/servers/{server_id}
//	                  200 -> the status string; otherwise OclUndefined
//	user.id.groups    GET  /identity/v3/auth/tokens (X-Subject-Token =
//	                  requester token) -> the requester's project roles
//
// Each read decodes only the field its path binds (decode.go). The
// provider authenticates as a dedicated monitoring service account with
// read access, exactly like a real monitoring deployment would.
package osbinding

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/openstack/keystone"
	"cloudmon/internal/openstack/nova"
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
	// client authenticates the service account, and its Timeout bounds
	// each read attempt.
	client  *osclient.Client
	account ServiceAccount
	// hc and ep send the reads: the client's HTTP client, and its BaseURL
	// parsed once.
	hc *http.Client
	ep *httpkit.Endpoint

	// Parallel resolves the paths of one Snapshot call concurrently, on
	// at most DefaultMaxParallel workers: the call then costs the slowest
	// read instead of the sum, and reads every path even when one fails.
	// core.Build sets it, since the monitor reads a request's pre-state
	// in one call; the constructors leave it off, so a caller that times
	// each call as one sequence of reads (a tracer subtracting nested
	// spans) still can. Unset, a call stops at its first failed path.
	Parallel bool

	// token is the service-account token as the X-Auth-Token header value
	// every read shares, read-only; nil until the account authenticates and
	// after a 401. A read loads it without a lock; mu serializes the
	// authentication that fills it.
	token atomic.Pointer[[]string]
	mu    sync.Mutex

	// Lock-free observability counters over the read loop (exported via
	// RegisterMetrics).
	attempts      obs.Counter
	retries       obs.Counter
	authRefreshes obs.Counter
	gets          obs.Counter
}

// ProviderStats snapshots the read-loop counters.
type ProviderStats struct {
	// Attempts counts cloud-read attempts, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first for an operation.
	Retries uint64 `json:"retries"`
	// AuthRefreshes counts 401-triggered token invalidations.
	AuthRefreshes uint64 `json:"auth_refreshes"`
	// Gets counts state-path resolutions — one per navigation path read,
	// each one REST GET against the cloud (before retries). The
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

// RegisterMetrics exposes the provider's read-loop counters on the
// registry.
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
	})
}

var _ monitor.StateProvider = (*Provider)(nil)

// NewProvider returns a provider that reads the cloud through c's HTTP
// client, authenticating with the service account on demand. Each read
// is one round trip (httpkit.Send): the HTTP client's Timeout and c's
// Timeout, when set, bound each attempt, and a redirect is the read's
// answer, not followed.
func NewProvider(c *osclient.Client, account ServiceAccount) *Provider {
	client := *c
	return &Provider{client: &client, account: account, hc: client.HTTP(), ep: httpkit.NewEndpoint(client.BaseURL)}
}

// NewProviderWithClient returns a provider for the cloud at baseURL whose
// reads go through httpClient's transport, one round trip each, under
// its Timeout; nil selects osclient's pooled default.
func NewProviderWithClient(baseURL string, account ServiceAccount, httpClient *http.Client) *Provider {
	c := osclient.New(baseURL)
	c.HTTPClient = httpClient
	return NewProvider(c, account)
}

// serviceToken returns the cached service token, authenticating the
// account first when there is none.
func (p *Provider) serviceToken() (*[]string, error) {
	if tok := p.token.Load(); tok != nil {
		return tok, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if tok := p.token.Load(); tok != nil {
		return tok, nil
	}
	id, err := p.client.Authenticate(p.account.User, p.account.Password, p.account.ProjectID)
	if err != nil {
		return nil, fmt.Errorf("osbinding: service-account auth: %w", err)
	}
	tok := &[]string{id}
	p.token.Store(tok)
	return tok, nil
}

// The read schedule: a cloud read gets readAttempts tries. The sleep
// before the second is backoffBase and each later one backoffGrowth times
// the last, capped at backoffCap; each is widened by up to ±backoffJitter
// of itself (never past the cap), so reads that failed together do not
// retry together against a recovering cloud.
const (
	readAttempts  = 3
	backoffBase   = 10 * time.Millisecond
	backoffGrowth = 4
	backoffCap    = 500 * time.Millisecond
	backoffJitter = 0.5
)

// backoff returns the sleep after failed attempt n (counting from 1);
// rnd draws the jitter from [0, 1).
func backoff(n int, rnd func() float64) time.Duration {
	d := backoffBase
	for i := 1; i < n && d < backoffCap; i++ {
		d *= backoffGrowth
	}
	d = min(d, backoffCap)
	return min(d+time.Duration(float64(d)*backoffJitter*(2*rnd()-1)), backoffCap)
}

// retryable reports whether a failed read is tried again. A 401 is an
// expired service token (the loop re-authenticates first), and 429 and
// these 5xx answers are the cloud's own transient failures. An error
// without a status is a read that did not complete: a transport error, or
// a body that does not decode or exceeds its bound. Any other status is
// the cloud's answer, and final.
func retryable(err error) bool {
	var se *osclient.StatusError
	if !errors.As(err, &se) {
		return true
	}
	switch se.Status {
	case http.StatusUnauthorized,
		http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// read runs fn, one GET against the cloud with the service token's header
// value, under the read schedule. A 401 drops the token it was sent with,
// so the next attempt authenticates again.
func (p *Provider) read(fn func(token []string) error) error {
	for attempt := 1; ; attempt++ {
		p.attempts.Inc()
		if attempt > 1 {
			p.retries.Inc()
		}
		tok, err := p.serviceToken()
		if err == nil {
			err = fn(*tok)
		}
		if err == nil {
			return nil
		}
		if osclient.IsStatus(err, http.StatusUnauthorized) {
			p.token.CompareAndSwap(tok, nil)
			p.authRefreshes.Inc()
		}
		if attempt == readAttempts || !retryable(err) {
			return err
		}
		time.Sleep(backoff(attempt, rand.Float64))
	}
}

// get GETs target, sending token as X-Auth-Token and subject, when set,
// as X-Subject-Token, and returns the 2xx reply's body; any other reply is
// a *osclient.StatusError.
func (p *Provider) get(token []string, target, subject string) ([]byte, error) {
	// No context unless an attempt has a deadline: a request then carries
	// none, and an in-process transport serves it on this goroutine.
	ctx := context.Background()
	if p.client.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.client.Timeout)
		defer cancel()
	}
	req, err := p.ep.Request(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, fmt.Errorf("osbinding: new request: %w", err)
	}
	req.Header["X-Auth-Token"] = token
	if subject != "" {
		req.Header["X-Subject-Token"] = []string{subject}
	}
	resp, body, err := httpkit.Send(p.hc, req, httpkit.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("osbinding: GET %s: %w", target, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, osclient.StatusErrorOf(resp.StatusCode, body)
	}
	return body, nil
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
		val ocl.Value
		err error
	}
	results := make([]result, len(paths))
	// The calling goroutine and its helpers pull path indices off one
	// counter until the list is drained. A read that does not block (an
	// in-process cloud) finishes before a helper is scheduled, so the
	// call mostly runs on the caller; one that waits on the network lets
	// the helpers take the other paths meanwhile.
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(paths) {
				return
			}
			v, err := p.resolve(ctx, paths[i])
			results[i] = result{val: v, err: err}
		}
	}
	helpers := min(DefaultMaxParallel, len(paths)) - 1
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	env := make(ocl.MapEnv, len(paths))
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("osbinding: resolve %s: %w", paths[i], r.err)
		}
		env[paths[i]] = r.val
	}
	return env, nil
}

// DefaultMaxParallel bounds the reads a Parallel snapshot runs at once —
// the caller's and its helpers' — so a contract with many paths cannot
// fan out an unbounded goroutine burst per request (which multiplies
// under concurrent proxy load).
const DefaultMaxParallel = 8

// binding is one state path's REST read.
type binding struct {
	// url is the GET's path; each {name} segment takes the request param
	// of that name, and a request without it reads OclUndefined.
	url string
	// subject sends the requester's token as X-Subject-Token, and a
	// request without one reads OclUndefined.
	subject bool
	// resp is the response type the typed client decodes the body into,
	// and bind the dotted JSON path of the one field the state path reads.
	resp any
	bind string

	lits, params []string // url around and at its {name} segments
	shape        shape
}

// bindings maps each state path to its read (see the package doc).
var bindings = map[string]*binding{
	"project.id": {url: "/identity/v3/projects/{project_id}", bind: "project.id",
		resp: struct {
			Project keystone.Project `json:"project"`
		}{}},
	"project.volumes": {url: "/volume/v3/{project_id}/volumes", bind: "volumes.id",
		resp: struct {
			Volumes []cinder.Volume `json:"volumes"`
		}{}},
	"project.servers": {url: "/compute/v2.1/{project_id}/servers", bind: "servers.id",
		resp: struct {
			Servers []nova.Server `json:"servers"`
		}{}},
	"quota_sets.volume": {url: "/volume/v3/{project_id}/quota_sets", bind: "quota_set.volumes",
		resp: struct {
			QuotaSet cinder.QuotaSet `json:"quota_set"`
		}{}},
	"volume.status": {url: "/volume/v3/{project_id}/volumes/{volume_id}", bind: "volume.status",
		resp: struct {
			Volume cinder.Volume `json:"volume"`
		}{}},
	"server.status": {url: "/compute/v2.1/{project_id}/servers/{server_id}", bind: "server.status",
		resp: struct {
			Server nova.Server `json:"server"`
		}{}},
	// The paper's guards write `user.id.groups='admin'` where 'admin' is
	// the role the user's group holds (Table I maps groups to roles);
	// Keystone reports those roles in token validation.
	"user.id.groups": {url: "/identity/v3/auth/tokens", subject: true, bind: "token.roles",
		resp: struct {
			Token keystone.Token `json:"token"`
		}{}},
}

func init() {
	for _, b := range bindings {
		rest := b.url
		for {
			lit, after, ok := strings.Cut(rest, "{")
			b.lits = append(b.lits, lit)
			if !ok {
				break
			}
			name, after, _ := strings.Cut(after, "}")
			b.params = append(b.params, name)
			rest = after
		}
		b.shape = newShape(reflect.TypeOf(b.resp), b.bind)
	}
}

// target expands the binding's URL with the request's params, each
// path-escaped so a decoded capture reads the resource it names (a "?"
// in it would otherwise cut the path); ok is false when the request
// lacks one.
func (b *binding) target(ctx *monitor.RequestContext) (string, bool) {
	if b.subject && ctx.Token == "" {
		return "", false
	}
	var buf [128]byte
	u := append(buf[:0], b.lits[0]...)
	for i, name := range b.params {
		v := ctx.Params[name]
		if v == "" {
			return "", false
		}
		u = append(append(u, url.PathEscape(v)...), b.lits[i+1]...)
	}
	return string(u), true
}

// resolve maps one navigation path to a value. Unknown paths and missing
// resources are OclUndefined, never errors — that is how "GET was not 200"
// enters the formulas.
func (p *Provider) resolve(ctx *monitor.RequestContext, path string) (ocl.Value, error) {
	p.gets.Inc()
	b := bindings[path]
	if b == nil {
		return ocl.Undefined(), nil
	}
	target, ok := b.target(ctx)
	if !ok {
		return ocl.Undefined(), nil
	}
	var subject string
	if b.subject {
		subject = ctx.Token
	}
	var out ocl.Value
	err := p.read(func(token []string) error {
		body, err := p.get(token, target, subject)
		if err != nil {
			return err
		}
		out, err = b.shape.decode(body)
		return err
	})
	switch {
	case err == nil:
		return out, nil
	case osclient.IsStatus(err, http.StatusNotFound):
		// A missing resource, or an invalid requester token: no value.
		return ocl.Undefined(), nil
	}
	return ocl.Value{}, err
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
