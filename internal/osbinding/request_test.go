package osbinding

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// Every cloud round trip builds its request with httpkit.Endpoint. These
// tests hold it to http.NewRequestWithContext(ctx, method, base+target,
// body): the cloud must receive the bytes it received when each request
// parsed its whole URL.

// requestBases are cloud base URLs: with and without a path prefix, and
// the forms Endpoint does not take apart (a query, a fragment, no scheme,
// an unparsable base), which take the full parse.
var requestBases = []string{
	"http://cloud.internal",
	"http://127.0.0.1:8776",
	"http://127.0.0.1:8776/",
	"https://svc:pw@cloud.internal:/prefix/v2",
	"http://cloud.internal/a%2Fb",
	"http://cloud.internal/with space",
	"http://[::1]:8776/x",
	"HTTP://Cloud.Internal",
	"http:///no-host",
	"http://cloud.internal/?q=1",
	"http://cloud.internal#frag",
	"cloud.internal",
	"http://cloud.internal/%4",
	"",
}

// requestCaptures are URI captures as the monitor decodes them,
// including those the escaping tests send: path and query delimiters,
// an escape, a space, non-ASCII text and a placeholder lookalike.
var requestCaptures = []string{
	"p1", "P?x", "{volume_id}", "p1;volume_id=v1", "a/b", "x#y", "50%", "%zz",
	"a b", "ünïcödé", "",
}

// requestMethods are the methods the round trips send, plus the empty
// method (GET) and an invalid one.
var requestMethods = []string{
	http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
	http.MethodHead, http.MethodPatch, http.MethodOptions, "", "BAD METHOD",
}

// requestTemplates are the cloud path templates: every binding's read and
// every Cinder and Nova route's backend.
func requestTemplates(t testing.TB) []string {
	t.Helper()
	var tmpls []string
	for _, b := range bindings {
		tmpls = append(tmpls, b.url)
	}
	for _, model := range []*uml.Model{paper.CinderModel(), paper.NovaModel()} {
		set, err := contract.Generate(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range Routes(set) {
			tmpls = append(tmpls, r.Backend)
		}
	}
	sort.Strings(tmpls)
	return tmpls
}

// expandTemplate fills the template's {project_id} with the escaped
// capture, as binding.target and the forwarder do; any other placeholder
// stays as written, as the forwarder leaves one without a capture.
func expandTemplate(tmpl, capture string) string {
	return strings.ReplaceAll(tmpl, "{project_id}", url.PathEscape(capture))
}

// requestBody returns a fresh body of one of the kinds whose length
// http.NewRequestWithContext derives, or of none.
func requestBody(kind uint8, content string) io.Reader {
	switch kind % 5 {
	case 1:
		return bytes.NewReader([]byte(content))
	case 2:
		return bytes.NewBufferString(content)
	case 3:
		return strings.NewReader(content)
	case 4:
		return io.MultiReader(strings.NewReader(content))
	}
	return nil
}

// checkCloudRequest builds the request both ways, sets the requester's
// token on each as its caller does, and fails on any difference.
func checkCloudRequest(t *testing.T, base, method, target string, kind uint8, content string) {
	t.Helper()
	ctx := context.Background()
	got, gotErr := httpkit.NewEndpoint(base).Request(ctx, method, target, requestBody(kind, content))
	want, wantErr := http.NewRequestWithContext(ctx, method, base+target, requestBody(kind, content))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q %q + %q: error %v, want %v", method, base, target, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	got.Header["X-Auth-Token"] = []string{content}
	want.Header.Set("X-Auth-Token", content)
	if diff := diffRequests(got, want); diff != "" {
		t.Fatalf("%q %q + %q: %s", method, base, target, diff)
	}
	if got.Context() != ctx {
		t.Fatalf("%q %q + %q: the request carries another context", method, base, target)
	}
}

// diffRequests names the first field in which got and want differ.
func diffRequests(got, want *http.Request) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"method", got.Method, want.Method},
		{"URL", got.URL.String(), want.URL.String()},
		{"escaped path", got.URL.EscapedPath(), want.URL.EscapedPath()},
		{"URL fields", *got.URL, *want.URL},
		{"host", got.Host, want.Host},
		{"protocol", [3]any{got.Proto, got.ProtoMajor, got.ProtoMinor}, [3]any{want.Proto, want.ProtoMajor, want.ProtoMinor}},
		{"header", got.Header, want.Header},
		{"content length", got.ContentLength, want.ContentLength},
		{"body kind", [2]bool{got.Body == nil, got.Body == http.NoBody}, [2]bool{want.Body == nil, want.Body == http.NoBody}},
		{"body", readBody(got.Body), readBody(want.Body)},
		{"GetBody", got.GetBody != nil, want.GetBody != nil},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s %#v, want %#v", f.name, f.got, f.want)
		}
	}
	if got.GetBody != nil {
		g, gerr := got.GetBody()
		w, werr := want.GetBody()
		if gerr != nil || werr != nil || readBody(g) != readBody(w) {
			return "GetBody bodies differ"
		}
	}
	return ""
}

func readBody(r io.Reader) string {
	if r == nil {
		return ""
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return "read error: " + err.Error()
	}
	return string(data)
}

// TestCloudRequestEquivalence builds every binding's and every route's
// request under every base and capture and holds each to
// http.NewRequestWithContext, cycling through the methods and body kinds.
func TestCloudRequestEquivalence(t *testing.T) {
	n := 0
	for _, base := range requestBases {
		for _, tmpl := range requestTemplates(t) {
			for _, capture := range requestCaptures {
				method := requestMethods[n%len(requestMethods)]
				checkCloudRequest(t, base, method, expandTemplate(tmpl, capture), uint8(n), capture)
				n++
			}
		}
	}
}

// FuzzCloudRequest holds httpkit.Endpoint to http.NewRequestWithContext
// on arbitrary base URLs, templates, captures, methods and bodies.
func FuzzCloudRequest(f *testing.F) {
	for i, tmpl := range requestTemplates(f) {
		for j, capture := range requestCaptures {
			f.Add(requestBases[(i+j)%len(requestBases)], tmpl, capture, uint8(i*len(requestCaptures)+j))
		}
	}
	for i, base := range requestBases {
		f.Add(base, "/volume/v3/{project_id}/volumes/{volume_id}", "P?x", uint8(i))
	}
	f.Add("http://cloud.internal", "volumes", "p1", uint8(0))
	f.Add("http://cloud.internal", "//other.host/x", "p1", uint8(0))
	f.Add("http://cloud.internal", "/x?y={project_id}", "p1", uint8(0))
	f.Add("http://cloud.internal", "/x\x7f", "p1", uint8(0))
	f.Fuzz(func(t *testing.T, base, tmpl, capture string, shape uint8) {
		method := requestMethods[int(shape)%len(requestMethods)]
		checkCloudRequest(t, base, method, expandTemplate(tmpl, capture), shape/uint8(len(requestMethods)), capture)
	})
}
