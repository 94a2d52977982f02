package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// loopback serves a handler on a 127.0.0.1 listener in this process.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return lb, nil
}

// close stops the listener, drops open connections and waits for the
// serving goroutine to exit.
func (lb *loopback) close() {
	_ = lb.srv.Close()
	<-lb.done
}

// maxConns is the connection budget of a workload's one closed-loop
// client (closedLoop). On the 2-core reference machine one client leaves
// a core for the server's own parallel work and the runtime; with two,
// every figure followed the host's scheduling more than the program
// (over four pairs of runs on the same seeds, cold-jobs' quartile spread
// of p50_ms was 0.18 with two clients and 0.04 with one).
const maxConns = 1

// newClient returns an HTTP client limited to maxConns connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	code, b, _, err := doHeader(ctx, c, method, url, body)
	return code, b, err
}

// doHeader is do that also returns the response headers.
func doHeader(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// postJSON posts v and decodes a JSON reply into out (when non-nil).
func postJSON(ctx context.Context, c *http.Client, url string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	code, raw, err := do(ctx, c, http.MethodPost, url, body)
	if err != nil {
		return code, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return code, fmt.Errorf("decode %s reply (status %d): %w", url, code, err)
		}
	}
	return code, nil
}

// getJSON fetches url and decodes the JSON reply into out.
func getJSON(ctx context.Context, url string, out any) (int, error) {
	code, raw, err := do(ctx, http.DefaultClient, http.MethodGet, url, nil)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(raw, out)
}

// errWrong marks a reply that arrived but carried a wrong answer.
var errWrong = errors.New("wrong answer")
