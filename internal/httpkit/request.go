package httpkit

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Endpoint is a cloud base URL parsed once. A request to a path under it
// is built from the parsed base and the escaped path, without parsing the
// whole URL again; the request is the one
// http.NewRequestWithContext(ctx, method, base+target, body) builds.
type Endpoint struct {
	raw string
	// base is the parsed base URL without its path, and path the base's
	// path as written. They are set only when appending a target to raw
	// cannot move anything but the path: raw has a scheme and an
	// authority, and neither a query nor a fragment. Otherwise every
	// request parses base+target in full.
	base *url.URL
	path string
}

// NewEndpoint returns the endpoint for the base URL raw. It never fails:
// a base it cannot take apart is parsed with each request's target, and
// a malformed one fails there, as http.NewRequestWithContext fails.
func NewEndpoint(raw string) *Endpoint {
	e := &Endpoint{raw: raw}
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Opaque != "" || strings.ContainsAny(raw, "?#") {
		return e
	}
	// What follows "scheme://authority" is the path as written, which is
	// what url.Parse reads the joined URL's path from.
	rest, ok := strings.CutPrefix(raw[len(u.Scheme)+1:], "//")
	if !ok {
		return e
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		e.path = rest[i:]
	}
	u.Path, u.RawPath = "", ""
	u.Host = removeEmptyPort(u.Host)
	e.base = u
	return e
}

// String returns the base URL as given.
func (e *Endpoint) String() string { return e.raw }

// Request builds a request for target, an escaped path under the
// endpoint (as url.PathEscape'd captures in a path template give). The
// path is unescaped only when it holds an escape. The body is nil or a
// *bytes.Reader, the bodies the monitor and its clients send; any other
// takes the full parse. The request's header map is empty: a caller
// setting a fixed header assigns its canonical key directly.
func (e *Endpoint) Request(ctx context.Context, method, target string, body io.Reader) (*http.Request, error) {
	br, _ := body.(*bytes.Reader)
	if e.base == nil || ctx == nil || !plainMethod(method) || !plainTarget(target) || (body != nil && br == nil) {
		return e.parsedRequest(ctx, method, target, body)
	}
	p := target
	if e.path != "" {
		p = e.path + target
	}
	u := new(url.URL)
	*u = *e.base
	if err := setPath(u, p); err != nil {
		return e.parsedRequest(ctx, method, target, body)
	}
	// A request without a context of its own reads as Background, so a
	// Background request is built in place rather than copied to set it.
	var r *http.Request
	if ctx == context.Background() {
		r = new(http.Request)
	} else {
		r = (&http.Request{}).WithContext(ctx)
	}
	r.Method, r.URL, r.Host = method, u, u.Host
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.Header = make(http.Header, 2)
	if br != nil {
		setBody(r, br)
	}
	return r, nil
}

// parsedRequest is Request by way of the full parse, for what the
// concatenation in Request does not cover.
func (e *Endpoint) parsedRequest(ctx context.Context, method, target string, body io.Reader) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, method, e.raw+target, body)
}

// plainMethod reports whether method is one Request builds without the
// full parse's method check: the methods the monitor and its clients
// send.
func plainMethod(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodOptions:
		return true
	}
	return false
}

// plainTarget reports whether appending target to the endpoint can only
// extend its path: target is empty or starts with "/", and holds no query
// or fragment delimiter and no control byte (which url.Parse rejects).
func plainTarget(target string) bool {
	if target != "" && target[0] != '/' {
		return false
	}
	for i := 0; i < len(target); i++ {
		if c := target[i]; c < ' ' || c == 0x7f || c == '?' || c == '#' {
			return false
		}
	}
	return true
}

// setPath sets u's Path and RawPath from the escaped path p as url.Parse
// does: Path is p unescaped, and RawPath keeps p only when p is not the
// default encoding of Path. A path of letters, digits and "-._~/" alone
// (a path of plain ids) is both, and is taken as it is.
func setPath(u *url.URL, p string) error {
	u.Path, u.RawPath = p, ""
	if plainPath(p) {
		return nil
	}
	if strings.IndexByte(p, '%') >= 0 {
		path, err := url.PathUnescape(p)
		if err != nil {
			return err
		}
		u.Path = path
	}
	if (&url.URL{Path: u.Path}).EscapedPath() != p {
		u.RawPath = p
	}
	return nil
}

// plainPath reports whether p holds only bytes that neither unescape nor
// need escaping in a path.
func plainPath(p string) bool {
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-', c == '_', c == '.', c == '~', c == '/':
		default:
			return false
		}
	}
	return true
}

// setBody gives r the body, ContentLength and GetBody that
// http.NewRequestWithContext derives from a *bytes.Reader.
func setBody(r *http.Request, body *bytes.Reader) {
	r.ContentLength = int64(body.Len())
	if r.ContentLength == 0 {
		r.Body = http.NoBody
		r.GetBody = func() (io.ReadCloser, error) { return http.NoBody, nil }
		return
	}
	r.Body = io.NopCloser(body)
	snapshot := *body
	r.GetBody = func() (io.ReadCloser, error) {
		rd := snapshot
		return io.NopCloser(&rd), nil
	}
}

// removeEmptyPort strips a trailing ":" with no port from host, as
// http.NewRequestWithContext does.
func removeEmptyPort(host string) string {
	if strings.LastIndex(host, ":") > strings.LastIndex(host, "]") {
		return strings.TrimSuffix(host, ":")
	}
	return host
}
