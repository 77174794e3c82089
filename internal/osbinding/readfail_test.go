package osbinding

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/ocl"
	"cloudmon/internal/osclient"
)

// TestReadFailureClasses pins how the provider resolves one state path for
// every answer the cloud can give its read: which answers are retried
// (three attempts in all), which drop the service token first, and what
// the path resolves to. Each answer is given on every call, and once
// before a 200.
func TestReadFailureClasses(t *testing.T) {
	const listing = `{"volumes":[{"id":"v1"}]}`
	oversized := `{"volumes":[]` + strings.Repeat(" ", httpkit.MaxBodyBytes) + `}`
	status := func(code int) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.WriteHeader(code)
			_, _ = fmt.Fprintf(w, `{"error": {"message": "status %d"}}`, code)
		}
	}
	isStatus := func(code int) func(error) bool {
		return func(err error) bool { return osclient.IsStatus(err, code) }
	}
	answers := []struct {
		name   string
		answer func(http.ResponseWriter)
		// retried: the provider reads again after this answer; reauth:
		// it drops its token first.
		retried, reauth bool
		// final is what the path resolves to when every call gets this
		// answer: a value, or an error that final accepts.
		value ocl.Value
		final func(error) bool
	}{
		{name: "200", answer: func(w http.ResponseWriter) { _, _ = io.WriteString(w, listing) },
			value: ocl.CollectionVal(ocl.StringVal("v1"))},
		{name: "400", answer: status(400), final: isStatus(400)},
		{name: "401", answer: status(401), retried: true, reauth: true, final: isStatus(401)},
		{name: "403", answer: status(403), final: isStatus(403)},
		{name: "404", answer: status(404), value: ocl.Undefined()},
		{name: "409", answer: status(409), final: isStatus(409)},
		{name: "429", answer: status(429), retried: true, final: isStatus(429)},
		{name: "500", answer: status(500), retried: true, final: isStatus(500)},
		{name: "502", answer: status(502), retried: true, final: isStatus(502)},
		{name: "503", answer: status(503), retried: true, final: isStatus(503)},
		{name: "504", answer: status(504), retried: true, final: isStatus(504)},
		{name: "reset", answer: func(http.ResponseWriter) { panic(http.ErrAbortHandler) }, retried: true,
			final: func(err error) bool { return errors.Is(err, httpkit.ErrAborted) }},
		{name: "undecodable", answer: func(w http.ResponseWriter) { _, _ = io.WriteString(w, `{"volumes":[{"id":`) }, retried: true,
			final: func(err error) bool { var se *json.SyntaxError; return errors.As(err, &se) }},
		{name: "oversized", answer: func(w http.ResponseWriter) { _, _ = io.WriteString(w, oversized) }, retried: true,
			final: func(err error) bool { var tl *httpkit.BodyTooLargeError; return errors.As(err, &tl) }},
	}
	ctx := &monitor.RequestContext{Params: map[string]string{"project_id": "p1"}}
	for _, a := range answers {
		for _, once := range []bool{false, true} {
			name := a.name + "/always"
			if once {
				name = a.name + "/once"
			}
			t.Run(name, func(t *testing.T) {
				cloud := &scriptedCloud{handler: func(call int, w http.ResponseWriter, r *http.Request) {
					if once && call > 1 {
						_, _ = io.WriteString(w, listing)
						return
					}
					a.answer(w)
				}}
				p := NewProviderWithClient("http://cloud.internal", ServiceAccount{
					User: "svc", Password: "pw", ProjectID: "p1",
				}, httpkit.HandlerClient(cloud))
				env, err := p.Snapshot(ctx, []string{"project.volumes"})

				wantCalls, wantValue, final := 1, a.value, a.final
				if a.retried {
					wantCalls = 3
					if once {
						wantCalls, wantValue, final = 2, ocl.CollectionVal(ocl.StringVal("v1")), nil
					}
				}
				// Each 401 drops the token, and each attempt after one
				// authenticates again.
				var wantRefreshes uint64
				wantAuths := 1
				if a.reauth {
					wantRefreshes, wantAuths = uint64(wantCalls-1), wantCalls
					if !once {
						wantRefreshes = uint64(wantCalls)
					}
				}
				switch {
				case final != nil && !final(err):
					t.Errorf("resolved to %v, %v; want the %s failure", env, err, a.name)
				case final == nil && (err != nil || !env["project.volumes"].Equal(wantValue)):
					t.Errorf("resolved to %v, %v; want %v", env, err, wantValue)
				}
				if auths, calls := cloud.counts(); calls != wantCalls || auths != wantAuths {
					t.Errorf("the cloud was called %d times with %d authentications, want %d and %d",
						calls, auths, wantCalls, wantAuths)
				}
				want := ProviderStats{Attempts: uint64(wantCalls), Retries: uint64(wantCalls - 1),
					AuthRefreshes: wantRefreshes, Gets: 1}
				if got := p.Stats(); got != want {
					t.Errorf("stats %+v, want %+v", got, want)
				}
			})
		}
	}
}
