package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call of a phase.
type request struct {
	due  time.Duration // open loop: when it is due, from phase start
	path string
	body []byte
}

// outcome is what one request returned.
type outcome struct {
	sent       bool
	status     int
	retryAfter bool // a Retry-After header was present
	err        error
	body       []byte        // kept only when the phase asks for bodies
	latency    time.Duration // open loop: from due; closed loop: from send
	late       time.Duration // open loop: send time minus due time
	done       time.Duration // completion, from phase start
}

// ok reports a 2xx answer.
func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status/100 == 2 }

// shed reports an admission-control refusal.
func (o *outcome) shed() bool {
	return o.sent && (o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable)
}

// client sends requests to one predictd over at most conns keep-alive
// connections.
type client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request; buf receives the body.
func (c *client) do(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (status int, retryAfter bool, err error) {
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, false, err
	}
	return resp.StatusCode, resp.Header.Get("Retry-After") != "", nil
}

// get fetches path and returns the body.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	st, _, err := c.do(ctx, path, nil, &buf)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, st, buf.String())
	}
	return buf.Bytes(), nil
}

// post sends body to path and returns the answer, failing on non-2xx.
func (c *client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	st, _, err := c.do(ctx, path, body, &buf)
	if err != nil {
		return nil, err
	}
	if st/100 != 2 {
		return nil, fmt.Errorf("POST %s %s: status %d: %s", path, body, st, buf.String())
	}
	return bytes.Clone(buf.Bytes()), nil
}

// onResponse inspects a finished request from the worker that sent it; it
// runs after the timing is taken and must be safe for concurrent use.
type onResponse func(i int, o *outcome, body []byte)

// runOpen drives reqs as an open loop on c's connections: each request is
// sent when it is due (or as soon as a connection frees up) and timed from
// when it was due, so a stall counts against every request it delays.
// Requests still unsent at stop are left unsent.
func (c *client) runOpen(ctx context.Context, reqs []request, stop time.Duration, check onResponse) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(reqs[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if sent.Sub(start) > stop {
					return
				}
				o := &out[i]
				o.sent = true
				o.status, o.retryAfter, o.err = c.do(ctx, reqs[i].path, reqs[i].body, &buf)
				end := time.Now()
				o.latency, o.late, o.done = end.Sub(due), sent.Sub(due), end.Sub(start)
				if check != nil {
					check(i, o, buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed drives reqs as a closed loop on one connection: the next
// request goes out when the previous one has answered, until dur passes.
func (c *client) runClosed(ctx context.Context, reqs []request, dur time.Duration, check onResponse) []outcome {
	var out []outcome
	start := time.Now()
	var buf bytes.Buffer
	for i := range reqs {
		if time.Since(start) >= dur || ctx.Err() != nil {
			break
		}
		sent := time.Now()
		o := outcome{sent: true}
		o.status, o.retryAfter, o.err = c.do(ctx, reqs[i].path, reqs[i].body, &buf)
		end := time.Now()
		o.latency, o.done = end.Sub(sent), end.Sub(start)
		out = append(out, o)
		if check != nil {
			check(i, &out[len(out)-1], buf.Bytes())
		}
	}
	return out
}
