package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"
)

// peer is the cluster tier's one way to call another process: router hops,
// drain handoffs, replica pushes and fetches, and recovery's liveness
// checks all go through call.
type peer struct {
	client    *http.Client
	transport http.RoundTripper
	timeout   time.Duration
}

// newPeer applies the tier's defaults once: a dedicated client with a 10 s
// timeout when client is nil, and a 5 s deadline per call when timeout is
// not positive.
func newPeer(client *http.Client, timeout time.Duration) peer {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	transport := client.Transport
	if transport == nil {
		transport = http.DefaultTransport // what Client.Do would use
	}
	return peer{client: client, transport: transport, timeout: timeout}
}

// callFunc is the shape of peer.call, and of the router's retrying wrapper
// around it.
type callFunc func(ctx context.Context, method, base, path string, body []byte, contentType string) ([]byte, int, http.Header, error)

// call is a single deadline-bounded request that returns the response body,
// status and headers. It sends straight through the client's Transport:
// http.Client.Do would add a header clone, a request fork and a timer
// wrapper per call for redirect, cookie and timeout machinery the cluster
// does not use. What of it the cluster does use is kept here: the client's
// Timeout caps the deadline, and errors are wrapped in *url.Error with
// Client.Do's text. Redirects are not followed; a 3xx comes back as is.
func (p *peer) call(ctx context.Context, method, base, path string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	timeout := p.timeout
	var clientDeadline time.Time // set when the client's Timeout is the cap
	if ct := p.client.Timeout; ct > 0 && ct < timeout {
		timeout = ct
		clientDeadline = time.Now().Add(ct)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, 0, nil, err
	}
	if contentType == "application/json" {
		req.Header["Content-Type"] = contentTypeJSON
	} else if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if u := req.URL.User; u != nil {
		pass, _ := u.Password()
		req.SetBasicAuth(u.Username(), pass)
	}
	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		err = clientTimeout(err, clientDeadline, "exceeded while awaiting headers")
		return nil, 0, nil, &url.Error{Op: urlErrorOp(method), URL: redactedURL(req.URL), Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, nil, clientTimeout(err, clientDeadline, "or context cancellation while reading body")
	}
	return data, resp.StatusCode, resp.Header, nil
}

// ready checks base's /readyz under timeout. up is whether it answered
// ready; responded is whether any HTTP response came back at all (false =
// silent failure: refused, reset, timed out).
func (p *peer) ready(base string, timeout time.Duration) (up, responded bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, true
}

// defaultRefusalLimit is how many import refusals one target may return
// during a drain or rebalance pass before it is skipped for the rest of it.
// A peer at its session cap, or drain-gating imports itself, refuses every
// session; without the limit it would be offered each one in turn.
const defaultRefusalLimit = 3

// handoff imports env, the envelope of a session detached from from, at the
// first of targets that takes it, trying them in order, and returns that
// target ("" when none did). from, empty entries, repeats and targets that
// already refused defaultRefusalLimit imports this pass are skipped. A 201
// means done. A 409 means the target holds or has fenced id at an epoch env
// cannot outrank; when it hosts the session live, that fresher copy stands
// and the handoff converged there, so env is a stale generation, correctly
// discarded. Anything else, an unreachable target included, counts one
// refusal for the pass. Callers keep their own fallback for a "".
func handoff(call callFunc, id, from string, env []byte, targets []string, refusals map[string]int) string {
	ctx := context.Background()
	for i, t := range targets {
		if t == "" || t == from || refusals[t] >= defaultRefusalLimit || slices.Contains(targets[:i], t) {
			continue
		}
		_, status, _, err := call(ctx, http.MethodPost, t, "/v1/sessions/import", env, "application/octet-stream")
		if err == nil && status == http.StatusConflict {
			if _, st, _, gerr := call(ctx, http.MethodGet, t, "/v1/sessions/"+id, nil, ""); gerr == nil && st == http.StatusOK {
				status = http.StatusCreated
			}
		}
		if err == nil && status == http.StatusCreated {
			return t
		}
		refusals[t]++
	}
	return ""
}

// contentTypeJSON is the shared, read-only Content-Type value of forwarded
// requests and proxied responses (net/http never writes header values).
var contentTypeJSON = []string{"application/json"}

// clientTimeout rewrites err the way http.Client reports its own Timeout
// firing: when clientDeadline is set and has passed, the error names
// Client.Timeout and still matches context.DeadlineExceeded.
func clientTimeout(err error, clientDeadline time.Time, during string) error {
	if clientDeadline.IsZero() || !time.Now().After(clientDeadline) {
		return err
	}
	return &clientTimeoutError{err.Error() + " (Client.Timeout " + during + ")"}
}

// clientTimeoutError mirrors net/http's unexported timeout error.
type clientTimeoutError struct{ msg string }

func (e *clientTimeoutError) Error() string   { return e.msg }
func (e *clientTimeoutError) Timeout() bool   { return true }
func (e *clientTimeoutError) Temporary() bool { return true }
func (e *clientTimeoutError) Is(err error) bool {
	return err == context.DeadlineExceeded
}

// urlErrorOp is url.Error's Op for a method, as Client.Do spells it
// ("Post", "Get", ...).
func urlErrorOp(method string) string {
	return method[:1] + strings.ToLower(method[1:])
}

// redactedURL is the URL as Client.Do puts it in errors: any password
// replaced by "***".
func redactedURL(u *url.URL) string {
	if _, set := u.User.Password(); set {
		return strings.Replace(u.String(), u.User.String()+"@", u.User.Username()+":***@", 1)
	}
	return u.String()
}
