package httpkit

import (
	"context"
	"fmt"
	"net/http"
)

// Send sends req over c's transport as httputil.ReverseProxy sends a
// proxied request, and reads the reply's body, failing past limit bytes
// (ReadBounded). It is the monitor's way to the cloud, for its state reads,
// its service-account login and its forwards alike, and osclient's for
// every request:
//
//   - One RoundTrip. A redirect is the cloud's answer, never followed: a
//     Location host sees neither the request nor its tokens, and a
//     forwarded write is never re-sent as another request, so a verdict
//     judges the request its client sent.
//   - c.Timeout, when positive, is a context deadline over the round trip
//     and the body's read, as it is for http.Client.Do. When it is zero the
//     request keeps its own context, so an in-process transport serves a
//     context-free request on the calling goroutine.
//   - No cookie jar and no redirect policy: c.Jar and c.CheckRedirect are
//     not consulted.
//
// As http.Client.Do does, Send sends the URL's user info as basic
// authentication when req has no Authorization header, setting it on
// req.Header. The reply's body is closed when Send returns.
func Send(c *http.Client, req *http.Request, limit int) (*http.Response, []byte, error) {
	if c.Timeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), c.Timeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	if u := req.URL.User; u != nil && req.Header.Get("Authorization") == "" {
		password, _ := u.Password()
		req.SetBasicAuth(u.Username(), password)
	}
	rt := c.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.Body == nil {
		return resp, nil, nil
	}
	defer resp.Body.Close()
	body, err := ReadBounded(resp.Body, limit, resp.ContentLength)
	if err != nil {
		return nil, nil, fmt.Errorf("read response: %w", err)
	}
	return resp, body, nil
}
