package fleet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudmon/internal/httpkit"
)

// bumpLog records the projects an instance's bus endpoint was bumped for.
type bumpLog struct {
	mu       sync.Mutex
	projects []string
}

func (b *bumpLog) InvalidateProject(project string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.projects = append(b.projects, project)
}

// remoteInstance serves a monitor instance's two listeners over HTTP: the
// proxy echoes each request's path, and the inspection listener serves
// the metrics page it is given and the bus endpoint.
func remoteInstance(t *testing.T, metrics *string, bumps *bumpLog) (proxyURL, inspectURL string) {
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
	mux.Handle(InvalidatePath, InvalidateHandler(bumps))
	inspect := httptest.NewServer(mux)
	t.Cleanup(inspect.Close)
	return proxy.URL, inspect.URL
}

// TestRemoteMember drives a front over one HTTP-reachable instance:
// requests reach the instance's proxy, its metrics page federates, bumps
// reach its bus endpoint, and a metrics page over the scrape bound fails
// the scrape instead of federating a cut page.
func TestRemoteMember(t *testing.T) {
	metrics := "# HELP t_up up\n# TYPE t_up gauge\nt_up{instance=\"m1\"} 1\n"
	bumps := &bumpLog{}
	proxyURL, inspectURL := remoteInstance(t, &metrics, bumps)
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

	if err := m.Invalidate("p1"); err != nil {
		t.Fatalf("bump: %v", err)
	}
	bumps.mu.Lock()
	got := strings.Join(bumps.projects, ",")
	bumps.mu.Unlock()
	if got != "p1" {
		t.Errorf("instance bumped for %q, want p1", got)
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

// TestPostInvalidateBoundsTheReply: a bump's reply is read under a bound,
// and one past it fails the bump.
func TestPostInvalidateBoundsTheReply(t *testing.T) {
	reply := ""
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, reply)
	}))
	defer srv.Close()
	if err := PostInvalidate(srv.Client(), srv.URL, "p1"); err != nil {
		t.Fatalf("bump with an empty reply: %v", err)
	}
	reply = strings.Repeat("x", maxBusReply+1)
	var tooLarge *httpkit.BodyTooLargeError
	if err := PostInvalidate(srv.Client(), srv.URL, "p1"); !errors.As(err, &tooLarge) {
		t.Errorf("bump with a %d-byte reply: %v, want a body-exceeds error", len(reply), err)
	}
}
