// Package httpkit provides small HTTP helpers shared by the simulated
// OpenStack services and the cloud monitor: a path-pattern router, JSON
// request/response encoding, and typed API errors that map onto HTTP
// status codes.
//
// The package is intentionally minimal — the paper's monitor interprets
// plain HTTP status codes and JSON bodies, so nothing beyond net/http and
// encoding/json is required.
package httpkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// APIError is an error carrying an HTTP status code. Services return it from
// handlers; WriteError maps it onto the response. It supports errors.As.
type APIError struct {
	// Status is the HTTP status code to report (e.g. 403, 404).
	Status int
	// Code is a short machine-readable identifier (e.g. "forbidden").
	Code string
	// Message is the human-readable detail.
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Status, e.Code, e.Message)
}

// Errorf builds an APIError with a formatted message.
func Errorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Common constructors for the status codes the paper's workflow interprets.
var (
	// ErrNotFound is a sentinel for 404 lookups inside services.
	ErrNotFound = errors.New("not found")
)

// NotFound builds a 404 APIError.
func NotFound(format string, args ...any) *APIError {
	return Errorf(http.StatusNotFound, "not_found", format, args...)
}

// Forbidden builds a 403 APIError.
func Forbidden(format string, args ...any) *APIError {
	return Errorf(http.StatusForbidden, "forbidden", format, args...)
}

// Unauthorized builds a 401 APIError.
func Unauthorized(format string, args ...any) *APIError {
	return Errorf(http.StatusUnauthorized, "unauthorized", format, args...)
}

// BadRequest builds a 400 APIError.
func BadRequest(format string, args ...any) *APIError {
	return Errorf(http.StatusBadRequest, "bad_request", format, args...)
}

// Conflict builds a 409 APIError.
func Conflict(format string, args ...any) *APIError {
	return Errorf(http.StatusConflict, "conflict", format, args...)
}

// OverLimit builds a 413 APIError (OpenStack's historical quota-exceeded code).
func OverLimit(format string, args ...any) *APIError {
	return Errorf(http.StatusRequestEntityTooLarge, "over_limit", format, args...)
}

// errorBody is the JSON envelope for errors, shaped after OpenStack's
// {"error": {"code": ..., "title": ..., "message": ...}} convention.
type errorBody struct {
	Error struct {
		Code    int    `json:"code"`
		Title   string `json:"title"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteJSON encodes v as JSON with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if v == nil {
		return
	}
	enc := json.NewEncoder(w)
	// Encoding errors after WriteHeader cannot be reported to the client;
	// they surface as a truncated body, which clients treat as a failure.
	_ = enc.Encode(v)
}

// WriteError maps err onto an HTTP error response. *APIError values keep
// their status; anything else becomes a 500.
func WriteError(w http.ResponseWriter, err error) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		apiErr = Errorf(http.StatusInternalServerError, "internal", "%v", err)
	}
	var body errorBody
	body.Error.Code = apiErr.Status
	body.Error.Title = apiErr.Code
	body.Error.Message = apiErr.Message
	WriteJSON(w, apiErr.Status, body)
}

// MaxBodyBytes bounds the JSON bodies exchanged with the cloud and the
// monitor: the requests they accept and the responses their clients read.
const MaxBodyBytes = 1 << 20

// MaxScrapeBytes bounds a scraped /metrics exposition document.
const MaxScrapeBytes = 16 << 20

// BodyTooLargeError is ReadBounded's answer to a body over its limit.
type BodyTooLargeError struct {
	Limit int
}

// Error implements the error interface.
func (e *BodyTooLargeError) Error() string {
	if e.Limit%(1<<20) == 0 {
		return "body exceeds " + strconv.Itoa(e.Limit>>20) + " MiB"
	}
	return "body exceeds " + strconv.Itoa(e.Limit) + " bytes"
}

// ReadBounded reads r to its end. A body longer than limit bytes fails
// with a *BodyTooLargeError rather than being cut: a cut JSON document
// fails to decode with a misleading error, or decodes to a different
// one, and a cut metrics page parses as a shorter page.
//
// sizeHint, when given and not negative, is the length the body declares
// (an HTTP Content-Length). It only sizes the buffer: a body that matches
// it is read into one allocation, one that is longer or shorter is read
// all the same, and a hint over limit allocates no more than limit+1
// bytes.
//
// An empty body allocates nothing: a zero-length read comes first, and a
// reader already at its end (http.NoBody, an empty bytes.Reader) answers
// it with io.EOF before any buffer exists. Any other answer is left to
// the reads that follow.
func ReadBounded(r io.Reader, limit int, sizeHint ...int64) ([]byte, error) {
	if _, err := r.Read(nil); err == io.EOF {
		return []byte{}, nil
	}
	size := int64(bytes.MinRead)
	if len(sizeHint) > 0 && sizeHint[0] >= 0 {
		// One byte past the body, so the read that finds its end needs no
		// room of its own. The hint is capped first: net/http accepts a
		// declared length up to math.MaxInt64, where adding one overflows.
		size = min(sizeHint[0], int64(limit)) + 1
	}
	buf := make([]byte, 0, min(size, int64(limit)+1))
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, &BodyTooLargeError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			// The body outgrew its hint: double the buffer, but never
			// past the one byte over limit that proves it too large.
			grown := make([]byte, len(buf), min(2*cap(buf)+bytes.MinRead, limit+1))
			copy(grown, buf)
			buf = grown
		}
	}
}

// ReadJSON decodes the request body into v, returning a BadRequest APIError
// on malformed input.
func ReadJSON(r *http.Request, v any) error {
	body, err := ReadBounded(r.Body, MaxBodyBytes)
	if err != nil {
		return BadRequest("read body: %v", err)
	}
	if len(body) == 0 {
		return BadRequest("empty body")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return BadRequest("decode body: %v", err)
	}
	return nil
}

// HandlerFunc is a handler that can fail; the router converts errors into
// HTTP error responses.
type HandlerFunc func(w http.ResponseWriter, r *http.Request, params map[string]string) error

// route is one registered pattern.
type route struct {
	method   string
	segments []string // literal or "{name}" capture
	handler  HandlerFunc
}

// Router dispatches requests on (method, path pattern) pairs. Patterns use
// `{name}` segments for captures, e.g. `/v3/{project_id}/volumes/{volume_id}`.
// The zero value is ready to use.
type Router struct {
	routes []route
	// NotFoundHandler, if set, is invoked when no pattern matches.
	NotFoundHandler http.Handler
}

var _ http.Handler = (*Router)(nil)

// Handle registers handler for the method and pattern.
func (rt *Router) Handle(method, pattern string, handler HandlerFunc) {
	rt.routes = append(rt.routes, route{
		method:   method,
		segments: SplitPath(pattern),
		handler:  handler,
	})
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	segs := SplitPath(r.URL.Path)
	methodSeen := false
	for _, rte := range rt.routes {
		params, ok := MatchSegments(rte.segments, segs)
		if !ok {
			continue
		}
		if rte.method != r.Method {
			methodSeen = true
			continue
		}
		if err := rte.handler(w, r, params); err != nil {
			WriteError(w, err)
		}
		return
	}
	if methodSeen {
		WriteError(w, Errorf(http.StatusMethodNotAllowed, "method_not_allowed",
			"method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	if rt.NotFoundHandler != nil {
		rt.NotFoundHandler.ServeHTTP(w, r)
		return
	}
	WriteError(w, NotFound("no route for %s %s", r.Method, r.URL.Path))
}

// SplitPath splits a URL path into non-empty segments.
func SplitPath(p string) []string {
	parts := strings.Split(strings.Trim(p, "/"), "/")
	if len(parts) == 1 && parts[0] == "" {
		return nil
	}
	return parts
}

// MatchSegments matches concrete path segments against a pattern, returning
// captured `{name}` parameters (nil when the pattern captures nothing).
func MatchSegments(pattern, segs []string) (map[string]string, bool) {
	if len(pattern) != len(segs) {
		return nil, false
	}
	var params map[string]string
	for i, p := range pattern {
		if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
			if params == nil {
				params = make(map[string]string, 2)
			}
			params[p[1:len(p)-1]] = segs[i]
			continue
		}
		if p != segs[i] {
			return nil, false
		}
	}
	return params, true
}
