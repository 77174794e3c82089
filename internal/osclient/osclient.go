// Package osclient is a small REST client for the simulated OpenStack
// cloud (and for the cloud monitor proxy, which exposes the same volume
// API). It plays the role cURL plays in the paper's workflow: every
// interaction goes through plain HTTP requests and interprets response
// status codes.
package osclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/openstack/keystone"
	"cloudmon/internal/openstack/nova"
)

// StatusError is returned for non-2xx responses, carrying the HTTP status
// and the response body's error message.
type StatusError struct {
	Status  int
	Message string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Message)
}

// IsStatus reports whether err is (or wraps) a StatusError with the given
// code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == code
}

// Client talks to one base URL with an optional bearer token.
type Client struct {
	// BaseURL is the root of the cloud or monitor, without trailing slash.
	BaseURL string
	// Token is sent as X-Auth-Token when non-empty.
	Token string
	// HTTPClient defaults to a pooled client bounded by
	// httpkit.DefaultCloudTimeout.
	HTTPClient *http.Client
	// Timeout, when positive, bounds each individual request with a
	// context deadline — the per-attempt deadline retry loops rely on.
	// It applies on top of (and usually under) the HTTP client's own
	// overall timeout.
	Timeout time.Duration
}

// New returns a client for the base URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// WithToken returns a copy of the client using the token.
func (c *Client) WithToken(token string) *Client {
	cp := *c
	cp.Token = token
	return &cp
}

// defaultTransport is the shared pooled transport: the monitor's snapshot
// reads hit the same one or two cloud hosts from many goroutines, so the
// per-host idle-connection cap is raised well past net/http's default of 2
// — otherwise concurrent snapshots churn through TCP dials under load.
var defaultTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}()

// defaultClient bounds request latency so a hung cloud cannot stall the
// monitor indefinitely. The bound derives from the one shared knob
// (httpkit.DefaultCloudTimeout) the monitor's forwarder also uses.
var defaultClient = &http.Client{Timeout: httpkit.DefaultCloudTimeout, Transport: defaultTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultClient
}

// Do performs a JSON request. in (if non-nil) is marshaled as the body;
// out (if non-nil) receives the decoded response body. It returns the
// response status code; non-2xx responses additionally return a
// *StatusError. extraHeaders are applied verbatim.
func (c *Client) Do(method, path string, in, out any, extraHeaders map[string]string) (int, error) {
	return c.DoCtx(context.Background(), method, path, in, out, extraHeaders)
}

// DoCtx is Do bounded by ctx; the client's Timeout (when set) additionally
// arms a per-request deadline, so a retry loop passing a long-lived ctx
// still gets fresh per-attempt deadlines.
func (c *Client) DoCtx(ctx context.Context, method, path string, in, out any, extraHeaders map[string]string) (int, error) {
	ctx, cancel := c.attemptContext(ctx)
	defer cancel()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("osclient: marshal request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range extraHeaders {
		req.Header.Set(k, v)
	}
	status, data, err := c.send(req, path)
	if err != nil {
		return status, err
	}
	return status, Decode(data, out)
}

// GetRaw GETs path and returns the 2xx response's body undecoded, for a
// caller that decodes only part of it. header, when non-empty, is sent
// with value (e.g. X-Subject-Token). A non-2xx response is a
// *StatusError, as from Do.
func (c *Client) GetRaw(path, header, value string) ([]byte, error) {
	// No context unless Timeout asks for one: a request then carries no
	// cancellable context, just like Do's.
	ctx, cancel := c.attemptContext(context.Background())
	defer cancel()
	req, err := c.request(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if header != "" {
		req.Header.Set(header, value)
	}
	_, data, err := c.send(req, path)
	return data, err
}

// attemptContext arms the client's per-request deadline on ctx, if any.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// request builds a request for path carrying the client's token.
func (c *Client) request(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, fmt.Errorf("osclient: new request: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("X-Auth-Token", c.Token)
	}
	return req, nil
}

// send issues req and reads the body, bounded by httpkit.MaxBodyBytes. A
// non-2xx status is a *StatusError carrying the body's error message.
func (c *Client) send(req *http.Request, path string) (int, []byte, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("osclient: %s %s: %w", req.Method, path, err)
	}
	defer resp.Body.Close()
	data, err := httpkit.ReadBounded(resp.Body, httpkit.MaxBodyBytes)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("osclient: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := extractErrorMessage(data)
		return resp.StatusCode, nil, &StatusError{Status: resp.StatusCode, Message: msg}
	}
	return resp.StatusCode, data, nil
}

// Decode decodes a 2xx response body into out, as Do does: an empty body
// or a nil out leaves out as it is.
func Decode(data []byte, out any) error {
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("osclient: decode response: %w", err)
		}
	}
	return nil
}

// extractErrorMessage pulls the message out of an OpenStack-style error
// body, falling back to the raw body.
func extractErrorMessage(data []byte) string {
	var body struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err == nil && body.Error.Message != "" {
		return body.Error.Message
	}
	return string(data)
}

// authRequest mirrors keystone's password-auth body.
type authRequest struct {
	Auth struct {
		Identity struct {
			Password struct {
				User struct {
					Name     string `json:"name"`
					Password string `json:"password"`
				} `json:"user"`
			} `json:"password"`
		} `json:"identity"`
		Scope struct {
			Project struct {
				ID string `json:"id"`
			} `json:"project"`
		} `json:"scope"`
	} `json:"auth"`
}

// Authenticate obtains a project-scoped token via keystone password auth
// and returns the token ID (also installing it on the client).
func (c *Client) Authenticate(userName, password, projectID string) (string, error) {
	var req authRequest
	req.Auth.Identity.Password.User.Name = userName
	req.Auth.Identity.Password.User.Password = password
	req.Auth.Scope.Project.ID = projectID

	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("osclient: marshal auth: %w", err)
	}
	ctx, cancel := c.attemptContext(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/identity/v3/auth/tokens", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("osclient: new auth request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return "", fmt.Errorf("osclient: auth: %w", err)
	}
	defer resp.Body.Close()
	data, err := httpkit.ReadBounded(resp.Body, httpkit.MaxBodyBytes)
	if err != nil {
		return "", fmt.Errorf("osclient: read auth response: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return "", &StatusError{Status: resp.StatusCode, Message: extractErrorMessage(data)}
	}
	tok := resp.Header.Get("X-Subject-Token")
	if tok == "" {
		return "", fmt.Errorf("osclient: auth response missing X-Subject-Token")
	}
	c.Token = tok
	return tok, nil
}

// ValidateToken asks keystone to resolve a subject token. The client's own
// token authenticates the call.
func (c *Client) ValidateToken(subject string) (*keystone.Token, error) {
	var out struct {
		Token keystone.Token `json:"token"`
	}
	_, err := c.Do(http.MethodGet, "/identity/v3/auth/tokens", nil, &out,
		map[string]string{"X-Subject-Token": subject})
	if err != nil {
		return nil, err
	}
	return &out.Token, nil
}

// GetProject fetches one project.
func (c *Client) GetProject(projectID string) (*keystone.Project, int, error) {
	var out struct {
		Project keystone.Project `json:"project"`
	}
	status, err := c.Do(http.MethodGet, "/identity/v3/projects/"+projectID, nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Project, status, nil
}

// ListVolumes lists the project's volumes.
func (c *Client) ListVolumes(projectID string) ([]cinder.Volume, int, error) {
	var out struct {
		Volumes []cinder.Volume `json:"volumes"`
	}
	status, err := c.Do(http.MethodGet, "/volume/v3/"+projectID+"/volumes", nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return out.Volumes, status, nil
}

// CreateVolume creates a volume.
func (c *Client) CreateVolume(projectID, name string, sizeGB int) (*cinder.Volume, int, error) {
	in := map[string]map[string]any{"volume": {"name": name, "size": sizeGB}}
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	status, err := c.Do(http.MethodPost, "/volume/v3/"+projectID+"/volumes", in, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Volume, status, nil
}

// GetVolume shows one volume.
func (c *Client) GetVolume(projectID, volumeID string) (*cinder.Volume, int, error) {
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	status, err := c.Do(http.MethodGet, "/volume/v3/"+projectID+"/volumes/"+volumeID, nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Volume, status, nil
}

// UpdateVolume renames a volume.
func (c *Client) UpdateVolume(projectID, volumeID, name string) (*cinder.Volume, int, error) {
	in := map[string]map[string]any{"volume": {"name": name}}
	var out struct {
		Volume cinder.Volume `json:"volume"`
	}
	status, err := c.Do(http.MethodPut, "/volume/v3/"+projectID+"/volumes/"+volumeID, in, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Volume, status, nil
}

// DeleteVolume deletes a volume, returning the response status.
func (c *Client) DeleteVolume(projectID, volumeID string) (int, error) {
	return c.Do(http.MethodDelete, "/volume/v3/"+projectID+"/volumes/"+volumeID, nil, nil, nil)
}

// GetQuota fetches the project quota set.
func (c *Client) GetQuota(projectID string) (*cinder.QuotaSet, int, error) {
	var out struct {
		QuotaSet cinder.QuotaSet `json:"quota_set"`
	}
	status, err := c.Do(http.MethodGet, "/volume/v3/"+projectID+"/quota_sets", nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.QuotaSet, status, nil
}

// SetQuota updates the project quota set.
func (c *Client) SetQuota(projectID string, q cinder.QuotaSet) (int, error) {
	in := map[string]cinder.QuotaSet{"quota_set": q}
	return c.Do(http.MethodPut, "/volume/v3/"+projectID+"/quota_sets", in, nil, nil)
}

// ListServers lists the project's compute instances.
func (c *Client) ListServers(projectID string) ([]nova.Server, int, error) {
	var out struct {
		Servers []nova.Server `json:"servers"`
	}
	status, err := c.Do(http.MethodGet, "/compute/v2.1/"+projectID+"/servers", nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return out.Servers, status, nil
}

// GetServer shows one compute instance.
func (c *Client) GetServer(projectID, serverID string) (*nova.Server, int, error) {
	var out struct {
		Server nova.Server `json:"server"`
	}
	status, err := c.Do(http.MethodGet, "/compute/v2.1/"+projectID+"/servers/"+serverID, nil, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Server, status, nil
}

// DeleteServer deletes a compute instance.
func (c *Client) DeleteServer(projectID, serverID string) (int, error) {
	return c.Do(http.MethodDelete, "/compute/v2.1/"+projectID+"/servers/"+serverID, nil, nil, nil)
}

// CreateServer boots a compute instance.
func (c *Client) CreateServer(projectID, name string) (*nova.Server, int, error) {
	in := map[string]map[string]string{"server": {"name": name}}
	var out struct {
		Server nova.Server `json:"server"`
	}
	status, err := c.Do(http.MethodPost, "/compute/v2.1/"+projectID+"/servers", in, &out, nil)
	if err != nil {
		return nil, status, err
	}
	return &out.Server, status, nil
}

// AttachVolume attaches the volume to the server.
func (c *Client) AttachVolume(projectID, serverID, volumeID string) (int, error) {
	in := map[string]string{"volume_id": volumeID}
	return c.Do(http.MethodPost, "/compute/v2.1/"+projectID+"/servers/"+serverID+"/attach", in, nil, nil)
}

// DetachVolume detaches the volume from the server.
func (c *Client) DetachVolume(projectID, serverID, volumeID string) (int, error) {
	in := map[string]string{"volume_id": volumeID}
	return c.Do(http.MethodPost, "/compute/v2.1/"+projectID+"/servers/"+serverID+"/detach", in, nil, nil)
}
