package httpkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

func TestAPIErrorConstructors(t *testing.T) {
	tests := []struct {
		err    *APIError
		status int
		code   string
	}{
		{NotFound("x %d", 1), 404, "not_found"},
		{Forbidden("x"), 403, "forbidden"},
		{Unauthorized("x"), 401, "unauthorized"},
		{BadRequest("x"), 400, "bad_request"},
		{Conflict("x"), 409, "conflict"},
		{OverLimit("x"), 413, "over_limit"},
	}
	for _, tt := range tests {
		if tt.err.Status != tt.status || tt.err.Code != tt.code {
			t.Errorf("%v: status=%d code=%q", tt.err, tt.err.Status, tt.err.Code)
		}
		if !strings.Contains(tt.err.Error(), tt.code) {
			t.Errorf("Error() = %q missing code", tt.err.Error())
		}
	}
}

func TestWriteErrorShapesBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, Forbidden("nope"))
	if rec.Code != 403 {
		t.Errorf("status = %d", rec.Code)
	}
	var body struct {
		Error struct {
			Code    int    `json:"code"`
			Title   string `json:"title"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != 403 || body.Error.Title != "forbidden" || body.Error.Message != "nope" {
		t.Errorf("body = %+v", body)
	}
}

func TestWriteErrorWrapsPlainErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, errors.New("boom"))
	if rec.Code != 500 {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestWriteErrorUnwrapsWrappedAPIError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, fmt.Errorf("context: %w", NotFound("gone")))
	if rec.Code != 404 {
		t.Errorf("status = %d, want 404 from wrapped APIError", rec.Code)
	}
}

func TestReadJSON(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"a":1}`))
	var v struct {
		A int `json:"a"`
	}
	if err := ReadJSON(req, &v); err != nil || v.A != 1 {
		t.Errorf("ReadJSON = %v, v=%+v", err, v)
	}
	for name, body := range map[string]string{
		"empty":     "",
		"malformed": "{",
	} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		var out map[string]any
		err := ReadJSON(req, &out)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("%s: err = %v, want 400 APIError", name, err)
		}
	}
}

func routerUnderTest() *Router {
	rt := &Router{}
	rt.Handle(http.MethodGet, "/v3/{project_id}/volumes", func(w http.ResponseWriter, r *http.Request, params map[string]string) error {
		WriteJSON(w, 200, map[string]string{"project": params["project_id"]})
		return nil
	})
	rt.Handle(http.MethodGet, "/v3/{project_id}/volumes/{volume_id}", func(w http.ResponseWriter, r *http.Request, params map[string]string) error {
		WriteJSON(w, 200, params)
		return nil
	})
	rt.Handle(http.MethodDelete, "/v3/{project_id}/volumes/{volume_id}", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		w.WriteHeader(204)
		return nil
	})
	rt.Handle(http.MethodGet, "/boom", func(http.ResponseWriter, *http.Request, map[string]string) error {
		return Forbidden("no entry")
	})
	return rt
}

func TestRouterDispatch(t *testing.T) {
	rt := routerUnderTest()
	tests := []struct {
		method, path string
		want         int
	}{
		{"GET", "/v3/p1/volumes", 200},
		{"GET", "/v3/p1/volumes/v9", 200},
		{"DELETE", "/v3/p1/volumes/v9", 204},
		{"GET", "/nope", 404},
		{"GET", "/v3/p1", 404},
		{"GET", "/v3/p1/volumes/v9/extra", 404},
		{"POST", "/v3/p1/volumes/v9", 405},
		{"GET", "/boom", 403},
	}
	for _, tt := range tests {
		req := httptest.NewRequest(tt.method, tt.path, nil)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != tt.want {
			t.Errorf("%s %s = %d, want %d", tt.method, tt.path, rec.Code, tt.want)
		}
	}
}

func TestRouterCaptures(t *testing.T) {
	rt := routerUnderTest()
	req := httptest.NewRequest("GET", "/v3/proj-7/volumes/vol-3", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	var params map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &params); err != nil {
		t.Fatal(err)
	}
	if params["project_id"] != "proj-7" || params["volume_id"] != "vol-3" {
		t.Errorf("params = %v", params)
	}
}

func TestRouterNotFoundHandler(t *testing.T) {
	rt := routerUnderTest()
	rt.NotFoundHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(418)
	})
	req := httptest.NewRequest("GET", "/nowhere", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != 418 {
		t.Errorf("custom not-found = %d", rec.Code)
	}
}

func TestHandlerClientRoundTrip(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/echo" {
			data, _ := io.ReadAll(r.Body)
			w.Header().Set("X-Test", "yes")
			w.WriteHeader(201)
			_, _ = w.Write(data)
			return
		}
		w.WriteHeader(404)
	})
	client := HandlerClient(h)
	resp, err := client.Post("http://in.memory/echo", "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Test") != "yes" {
		t.Error("header lost")
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "hello" {
		t.Errorf("body = %q", body)
	}
	// GET without body.
	resp2, err := client.Get("http://in.memory/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("status = %d", resp2.StatusCode)
	}
}

func TestRecorderDefaultsTo200(t *testing.T) {
	client := HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("implicit ok"))
	}))
	resp, err := client.Get("http://in.memory/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRecorderIgnoresSecondWriteHeader(t *testing.T) {
	client := HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(201)
		w.WriteHeader(500) // must be ignored
	}))
	resp, err := client.Get("http://in.memory/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Errorf("status = %d, want first WriteHeader to win", resp.StatusCode)
	}
}

func TestWriteJSONNilBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 204, nil)
	if rec.Code != 204 || rec.Body.Len() != 0 {
		t.Errorf("code=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestReadBounded(t *testing.T) {
	for _, tc := range []struct {
		n, limit int
		wantErr  string
	}{
		{0, 8, ""},
		{8, 8, ""},
		{9, 8, "body exceeds 8 bytes"},
		{MaxBodyBytes, MaxBodyBytes, ""},
		{MaxBodyBytes + 1, MaxBodyBytes, "body exceeds 1 MiB"},
	} {
		data, err := ReadBounded(strings.NewReader(strings.Repeat("x", tc.n)), tc.limit)
		var tooLarge *BodyTooLargeError
		switch {
		case tc.wantErr == "" && (err != nil || len(data) != tc.n):
			t.Errorf("%d bytes under a %d limit: %d bytes, %v", tc.n, tc.limit, len(data), err)
		case tc.wantErr != "" && (!errors.As(err, &tooLarge) || err.Error() != tc.wantErr || data != nil):
			t.Errorf("%d bytes under a %d limit: %v, want %q", tc.n, tc.limit, err, tc.wantErr)
		}
	}
}

// TestReadBoundedSizeHint: a declared length only sizes the buffer. Under
// every hint — none, exact, understated, overstated, past the limit, up
// to the largest length net/http accepts — a body within the limit is
// read whole and one past it fails, and no buffer grows past limit+1
// bytes.
func TestReadBoundedSizeHint(t *testing.T) {
	const limit = 4096
	for _, n := range []int{0, 1, 511, 512, 513, 3000, limit, limit + 1, 3 * limit} {
		body := strings.Repeat("x", n)
		for _, hint := range []int64{-1, int64(n), int64(n / 2), 0, int64(n) + 7, 2 * int64(n), limit + 1, 1 << 40, math.MaxInt64} {
			// One byte per Read, so every buffer boundary is crossed.
			data, err := ReadBounded(iotest.OneByteReader(strings.NewReader(body)), limit, hint)
			var tooLarge *BodyTooLargeError
			switch {
			case n <= limit && (err != nil || string(data) != body):
				t.Errorf("%d bytes, hint %d: %d bytes, %v; want the body whole", n, hint, len(data), err)
			case n > limit && (!errors.As(err, &tooLarge) || data != nil):
				t.Errorf("%d bytes, hint %d: %d bytes, %v; want a body-exceeds error", n, hint, len(data), err)
			case cap(data) > limit+1:
				t.Errorf("%d bytes, hint %d: a %d-byte buffer past the %d-byte bound", n, hint, cap(data), limit)
			}
		}
	}
}

// TestReadBoundedEmptyBodyAllocatesNothing: a body that is empty from the
// start — what net/http hands a GET or DELETE, and what the in-memory
// transport hands one, an empty bytes.Reader behind io.NopCloser — is
// read without a buffer.
func TestReadBoundedEmptyBodyAllocatesNothing(t *testing.T) {
	for name, body := range map[string]io.Reader{
		"http.NoBody":          http.NoBody,
		"empty bytes.Reader":   bytes.NewReader(nil),
		"NopCloser(empty)":     io.NopCloser(bytes.NewReader(nil)),
		"empty strings.Reader": strings.NewReader(""),
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if data, err := ReadBounded(body, MaxBodyBytes); err != nil || len(data) != 0 {
				t.Fatalf("%s: read %d bytes, %v", name, len(data), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per read, want 0", name, allocs)
		}
	}
}

// TestReadBoundedExactHintAllocatesOnce: a body whose declared length is
// right is read into one allocation.
func TestReadBoundedExactHintAllocatesOnce(t *testing.T) {
	body := []byte(strings.Repeat("x", 10000))
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if data, err := ReadBounded(r, MaxBodyBytes, int64(len(body))); err != nil || len(data) != len(body) {
			t.Fatalf("read %d bytes, %v", len(data), err)
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per read, want 1", allocs)
	}
}
