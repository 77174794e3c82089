package monitor

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/paper"
)

// fuzzMonitor builds one monitor over the paper's Cinder routes for the
// fuzz target (construction is too expensive per input).
func fuzzMonitor(tb testing.TB) *Monitor {
	tb.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		tb.Fatal(err)
	}
	var routes []Route
	for _, c := range set.Contracts {
		pattern := c.URI
		if string(c.Trigger.Method) == http.MethodPost {
			pattern = pattern[:strings.LastIndex(pattern, "/")]
		}
		routes = append(routes, Route{Trigger: c.Trigger, Pattern: pattern, Backend: pattern})
	}
	m, err := New(Config{
		Contracts: set,
		Routes:    routes,
		Provider:  &fakeProvider{},
		Forward:   &fakeForwarder{status: 200},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// FuzzRouteMatch is the satellite fuzz target for route matching and URI
// parameter extraction: arbitrary methods and paths — malformed, encoded,
// trailing-slashed — must never panic, and a reported match must be
// internally consistent (substituting the captured params back into the
// pattern reproduces the request path).
func FuzzRouteMatch(f *testing.F) {
	m := fuzzMonitor(f)
	seeds := []struct{ method, path string }{
		{"GET", "/projects/p1/volumes/v1"},
		{"DELETE", "/projects/p1/volumes/v1"},
		{"POST", "/projects/p1/volumes"},
		{"PUT", "/projects/p1/volumes/v1"},
		{"GET", "/projects/p1/volumes/v1/"},
		{"GET", "//projects//p1//volumes//v1"},
		{"GET", "/projects/p%2F1/volumes/v1"},
		{"GET", "/projects//volumes/"},
		{"get", "/projects/p1/volumes/v1"},
		{"GET", ""},
		{"GET", "/"},
		{"TRACE", "/projects/p1/volumes/v1"},
		{"GET", "/projects/p1/volumes/v1/extra"},
		{"GET", strings.Repeat("/projects", 64)},
		{"GET", "/projects/{project_id}/volumes/{volume_id}"},
		{"GET", "/projects/\x00/volumes/\xff"},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path)
	}
	f.Fuzz(func(t *testing.T, method, path string) {
		req := &http.Request{Method: method, URL: &url.URL{Path: path}}
		cr, params, ok := m.match(req)
		if !ok {
			if cr != nil || params != nil {
				t.Fatalf("no match but cr=%v params=%v", cr, params)
			}
			return
		}
		if cr == nil || params == nil {
			t.Fatalf("match returned ok with cr=%v params=%v", cr, params)
		}
		if string(cr.route.Trigger.Method) != method {
			t.Fatalf("matched %s route for method %q", cr.route.Trigger.Method, method)
		}
		// Substituting the captures back into the pattern must reproduce
		// the request's segment split — otherwise a request was mis-routed.
		segs := httpkit.SplitPath(path)
		if len(segs) != len(cr.segments) {
			t.Fatalf("matched %d-segment pattern against %d-segment path", len(cr.segments), len(segs))
		}
		for i, p := range cr.segments {
			if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
				name := p[1 : len(p)-1]
				got, okParam := params[name]
				if !okParam {
					t.Fatalf("capture %q missing from params %v", name, params)
				}
				if got != segs[i] {
					t.Fatalf("capture %q = %q, path segment %q", name, got, segs[i])
				}
				continue
			}
			if p != segs[i] {
				t.Fatalf("literal segment %q matched path segment %q", p, segs[i])
			}
		}
		// Captured values never span segments.
		for name, val := range params {
			if strings.Contains(val, "/") {
				t.Fatalf("param %q captured a slash: %q", name, val)
			}
		}
	})
}

// TestMatchTrailingAndEncoded pins concrete routing edge cases the fuzzer
// seeds: trailing slashes and doubled separators normalise away, encoded
// slashes arrive decoded in URL.Path and must not smear across segments.
func TestMatchTrailingAndEncoded(t *testing.T) {
	m := fuzzMonitor(t)
	cases := []struct {
		method, path string
		wantMatch    bool
		wantParams   map[string]string
	}{
		{"GET", "/projects/p1/volumes/v1", true, map[string]string{"project_id": "p1", "volume_id": "v1"}},
		{"GET", "/projects/p1/volumes/v1/", true, map[string]string{"project_id": "p1", "volume_id": "v1"}},
		{"GET", "//projects//p1//volumes//v1", false, nil},
		{"GET", "/projects/p1/volumes", false, nil},
		{"POST", "/projects/p1/volumes", true, map[string]string{"project_id": "p1"}},
		{"GET", "/Projects/p1/volumes/v1", false, nil},
		{"PATCH", "/projects/p1/volumes/v1", false, nil},
	}
	for _, c := range cases {
		req := &http.Request{Method: c.method, URL: &url.URL{Path: c.path}}
		cr, params, ok := m.match(req)
		if ok != c.wantMatch {
			t.Errorf("%s %s: match = %v, want %v", c.method, c.path, ok, c.wantMatch)
			continue
		}
		if !ok {
			continue
		}
		_ = cr
		for k, want := range c.wantParams {
			if params[k] != want {
				t.Errorf("%s %s: param %s = %q, want %q", c.method, c.path, k, params[k], want)
			}
		}
	}
}
