package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/check"
)

// Client is a typed HTTP client for the daemon API, used by the replay
// and end-to-end benchmarks and by tests; it exercises the same wire
// path a real editor integration would.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions
}

// ClientOptions tunes the client's robustness against a slow or flaky
// daemon. The zero value matches the historical behavior: a 120 s
// request timeout and no retries.
type ClientOptions struct {
	// Timeout bounds one HTTP attempt end to end; <= 0 means 120s.
	Timeout time.Duration
	// Retries is how many additional attempts an idempotent request
	// (GET, HEAD, DELETE) gets after a transport failure or a retryable
	// status (502/503/504). Non-idempotent requests never retry: a
	// timed-out POST may have executed.
	Retries int
	// Backoff is the initial retry delay, doubling per attempt; <= 0
	// means 50ms when Retries > 0.
	Backoff time.Duration
}

func (o *ClientOptions) fill() {
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7777") with default options.
func NewClient(base string) *Client {
	return NewClientWith(base, ClientOptions{})
}

// NewClientWith returns a client with explicit timeout/retry options.
func NewClientWith(base string, opts ClientOptions) *Client {
	opts.fill()
	return &Client{base: base, hc: &http.Client{Timeout: opts.Timeout}, opts: opts}
}

// idempotentMethod reports whether a request may be safely re-sent
// without risking a duplicated side effect.
func idempotentMethod(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodDelete:
		return true
	}
	return false
}

// retryableStatus reports whether a status signals a transient
// condition (overloaded pool, draining node, gateway timeout) rather
// than a request defect.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one JSON round trip; out may be nil for responses without a
// body. Non-2xx responses decode the error envelope. Idempotent
// requests are retried with exponential backoff per ClientOptions.
func (c *Client) do(method, path string, in, out any) error {
	var blob []byte
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return err
		}
	}
	retries := 0
	if idempotentMethod(method) {
		retries = c.opts.Retries
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err, retryable := c.attempt(method, path, blob, in != nil, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= retries {
			return lastErr
		}
		time.Sleep(c.opts.Backoff << attempt)
	}
}

// attempt is one HTTP round trip; retryable reports whether the failure
// is transient (transport error or a retryable status).
func (c *Client) attempt(method, path string, blob []byte, hasBody bool, out any) (err error, retryable bool) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err, false
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err, true
	}
	defer resp.Body.Close()
	respBlob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err, true
	}
	if resp.StatusCode >= 400 {
		retryable := retryableStatus(resp.StatusCode)
		var ae apiError
		if json.Unmarshal(respBlob, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, ae.Error), retryable
		}
		return fmt.Errorf("%s %s: %d", method, path, resp.StatusCode), retryable
	}
	if out == nil {
		return nil, false
	}
	return json.Unmarshal(respBlob, out), false
}

// CreateSession registers a session on the daemon.
func (c *Client) CreateSession(name, subject, mode string) (Info, error) {
	var info Info
	err := c.do("POST", "/v1/sessions", sessionRequest{Name: name, Subject: subject, Mode: mode}, &info)
	return info, err
}

// CloseSession removes a session.
func (c *Client) CloseSession(name string) error {
	return c.do("DELETE", "/v1/sessions/"+url.PathEscape(name), nil, nil)
}

// Edit writes one file into the session tree.
func (c *Client) Edit(session, path, content string) (EditResult, error) {
	var res EditResult
	err := c.do("POST", "/v1/sessions/"+url.PathEscape(session)+"/files",
		editRequest{Path: path, Content: content}, &res)
	return res, err
}

// Cycle runs one development-cycle iteration; newSymbol may be empty.
func (c *Client) Cycle(session, newSymbol string) (*CycleResult, error) {
	var res CycleResult
	err := c.do("POST", "/v1/sessions/"+url.PathEscape(session)+"/cycle",
		cycleRequest{NewSymbol: newSymbol}, &res)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Substitute runs Header Substitution for the session.
func (c *Client) Substitute(session string, includeContent bool) (*SubstituteResult, error) {
	path := "/v1/sessions/" + url.PathEscape(session) + "/substitute"
	if includeContent {
		path += "?include_content=1"
	}
	var res SubstituteResult
	if err := c.do("POST", path, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Check runs the substitution-safety passes for the session; passes may
// be nil to run all of them.
func (c *Client) Check(session string, passes []string) (*check.Result, error) {
	var res check.Result
	if err := c.do("POST", "/v1/sessions/"+url.PathEscape(session)+"/check",
		checkRequest{Passes: passes}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ReadFile fetches one file from the session's working tree.
func (c *Client) ReadFile(session, path string) (string, error) {
	var res fileResponse
	err := c.do("GET", "/v1/sessions/"+url.PathEscape(session)+"/files?path="+url.QueryEscape(path), nil, &res)
	return res.Content, err
}

// SessionInfo fetches one session's info.
func (c *Client) SessionInfo(session string) (Info, error) {
	var info Info
	err := c.do("GET", "/v1/sessions/"+url.PathEscape(session), nil, &info)
	return info, err
}

// Health fetches /healthz. Unlike the other calls it decodes the body
// regardless of HTTP status: a draining daemon answers 503 with
// {"status":"draining","draining":true}, which is a valid health report,
// not an error. Transport failures still error.
func (c *Client) Health() (map[string]any, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET /healthz: %d: %v", resp.StatusCode, err)
	}
	return out, nil
}
