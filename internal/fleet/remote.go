package fleet

import (
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"time"

	"cloudmon/internal/httpkit"
)

// scrapeTimeout bounds one member scrape when NewRemoteMember builds the
// scrape client itself. FederationHandler scrapes the members one after
// another, so a member that accepts the scrape and never answers (a
// stopped or deadlocked process) would otherwise hang every federated
// scrape of the fleet.
const scrapeTimeout = 3 * time.Second

// NewRemoteMember builds a Member over a network-reachable cloudmon
// instance: requests reverse-proxy to proxyURL, and federation scrapes
// inspectURL/metrics with client (nil: a client bounded by
// scrapeTimeout). inspectURL may be empty for an instance that exposes no
// inspection listener — it still routes, it just cannot federate.
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
		httpc = &http.Client{Timeout: scrapeTimeout}
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
	return m, nil
}
