package fleet

import (
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"

	"cloudmon/internal/httpkit"
)

// NewRemoteMember builds a Member over a network-reachable cloudmon
// instance: requests reverse-proxy to proxyURL, federation scrapes
// inspectURL/metrics, and invalidation bumps post to
// inspectURL/fleet/invalidate. inspectURL may be empty for an instance
// that exposes no inspection listener — it still routes, it just cannot
// federate or receive bumps.
func NewRemoteMember(id, proxyURL, inspectURL string, client *http.Client) (*Member, error) {
	target, err := url.Parse(proxyURL)
	if err != nil {
		return nil, fmt.Errorf("fleet: instance %s proxy url: %w", id, err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	if client != nil {
		rp.Transport = client.Transport
	}
	m := &Member{ID: id, Proxy: rp}
	if inspectURL == "" {
		return m, nil
	}
	httpc := client
	if httpc == nil {
		httpc = http.DefaultClient
	}
	m.Metrics = func() (string, error) {
		resp, err := httpc.Get(inspectURL + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("fleet: instance %s metrics: %s", id, resp.Status)
		}
		body, err := httpkit.ReadBounded(resp.Body, httpkit.MaxScrapeBytes)
		if err != nil {
			return "", fmt.Errorf("fleet: instance %s metrics: %w", id, err)
		}
		return string(body), nil
	}
	m.Invalidate = func(project string) error {
		return PostInvalidate(httpc, inspectURL, project)
	}
	return m, nil
}
