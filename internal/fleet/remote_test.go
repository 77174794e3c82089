package fleet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudmon/internal/httpkit"
)

// remoteInstance serves a monitor instance's two listeners over HTTP: the
// proxy echoes each request's path, and the inspection listener serves
// the metrics page it is given.
func remoteInstance(t *testing.T, metrics *string) (proxyURL, inspectURL string) {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, r.Method+" "+r.URL.Path)
	}))
	t.Cleanup(proxy.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, *metrics)
	})
	inspect := httptest.NewServer(mux)
	t.Cleanup(inspect.Close)
	return proxy.URL, inspect.URL
}

// TestRemoteMember drives a front over one HTTP-reachable instance:
// requests reach the instance's proxy, its metrics page federates, and a
// metrics page over the scrape bound fails the scrape instead of
// federating a cut page.
func TestRemoteMember(t *testing.T) {
	metrics := "# HELP t_up up\n# TYPE t_up gauge\nt_up{instance=\"m1\"} 1\n"
	proxyURL, inspectURL := remoteInstance(t, &metrics)
	m, err := NewRemoteMember("m1", proxyURL, inspectURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewFront([]*Member{m})
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v1", nil))
	if rec.Code != http.StatusAccepted || rec.Body.String() != "DELETE /projects/p1/volumes/v1" {
		t.Errorf("proxied request: %d %q, want 202 from the instance", rec.Code, rec.Body.String())
	}

	scrape := func() string {
		rec := httptest.NewRecorder()
		front.FederationHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	if doc := scrape(); !strings.Contains(doc, `t_up{instance="m1"} 1`) || strings.Contains(doc, "fleet_federation_errors") {
		t.Errorf("federated page lacks the instance's samples:\n%s", doc)
	}

	metrics = "t_up 1\n" + strings.Repeat("#", httpkit.MaxScrapeBytes)
	var tooLarge *httpkit.BodyTooLargeError
	if _, err := m.Metrics(); !errors.As(err, &tooLarge) {
		t.Errorf("scrape over %d bytes: %v, want a body-exceeds error", httpkit.MaxScrapeBytes, err)
	}
	if doc := scrape(); !strings.Contains(doc, "fleet_federation_errors 1") || strings.Contains(doc, "t_up") {
		t.Errorf("an oversized scrape must count as a failed one, not federate a cut page:\n%s", doc)
	}
}

// TestFederationSurvivesAWedgedMember: a member whose inspect listener
// takes the scrape and never answers, as a stopped or deadlocked process
// does, costs the federated page its own samples and one error count,
// not the page. The deadline is well past the scrape bound; a handler
// that waits on the member for good fails the test instead of hanging it.
func TestFederationSurvivesAWedgedMember(t *testing.T) {
	metrics := "# HELP t_up up\n# TYPE t_up gauge\nt_up{instance=\"m-00\"} 1\n"
	proxyURL, inspectURL := remoteInstance(t, &metrics)
	healthy, err := NewRemoteMember("m-00", proxyURL, inspectURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	t.Cleanup(func() {
		close(release)
		stuck.Close()
	})
	wedged, err := NewRemoteMember("m-01", stuck.URL, stuck.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewFront([]*Member{healthy, wedged})
	if err != nil {
		t.Fatal(err)
	}

	page := make(chan string, 1)
	go func() {
		rec := httptest.NewRecorder()
		front.FederationHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		page <- rec.Body.String()
	}()
	select {
	case doc := <-page:
		if !strings.Contains(doc, `t_up{instance="m-00"} 1`) {
			t.Errorf("federated page lacks the healthy member's samples:\n%s", doc)
		}
		if !strings.Contains(doc, "# fleet_federation_errors 1 ") {
			t.Errorf("federated page does not count the wedged member's scrape as failed:\n%s", doc)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the federated scrape hung on a member that never answers")
	}
}
