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

	"repro/internal/parallel"
	"repro/internal/service"
)

// maxConns bounds the benchmark's client connections (and client
// goroutines): the host's core count, so the load generator never
// outnumbers the cores it shares with the server.
const maxConns = 2

// server is one in-process service instance behind a loopback
// listener, driven over real HTTP.
type server struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	wait   func()
}

// boot starts the service with cfg on a fresh loopback port.
func boot(cfg service.Config) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("booting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: svc, ReadHeaderTimeout: 5 * time.Second}
	s := &server{
		svc:  svc,
		hs:   hs,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
			},
		},
	}
	s.wait = parallel.Workers(1, func(int) {
		// Serve returns http.ErrServerClosed once close runs.
		_ = hs.Serve(ln)
	})
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and
// drains the service's async job workers.
func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	s.wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Drain(ctx)
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	body   []byte
	reqID  string
	took   time.Duration
}

// ok reports a 2xx status.
func (r reply) ok() bool { return r.status/100 == 2 }

// do sends one request and reads the whole body. Transport errors are
// returned; HTTP error statuses are not (the caller checks ok).
func (s *server) do(method, path, contentType string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, reqID: resp.Header.Get("X-Request-Id"), took: took}, nil
}

// postJSON posts a JSON body.
func (s *server) postJSON(path string, body []byte) (reply, error) {
	return s.do(http.MethodPost, path, "application/json", body)
}

// call sends one set-up request; a transport error or non-2xx reply
// is an error naming the operation, since any set-up failure aborts
// the run.
func (s *server) call(what, method, path, contentType string, body []byte) (reply, error) {
	r, err := s.do(method, path, contentType, body)
	if err != nil {
		return r, fmt.Errorf("%s: %w", what, err)
	}
	if !r.ok() {
		return r, fmt.Errorf("%s: status %d: %s", what, r.status, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// decode unmarshals a reply body.
func decode[T any](r reply) (T, error) {
	var v T
	if err := json.Unmarshal(r.body, &v); err != nil {
		return v, fmt.Errorf("decoding %q: %w", truncate(r.body), err)
	}
	return v, nil
}

// metrics fetches the server's /metrics snapshot.
func (s *server) metrics() (service.Snapshot, error) {
	r, err := s.call("GET /metrics", http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return service.Snapshot{}, err
	}
	return decode[service.Snapshot](r)
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

var errMismatch = errors.New("response does not match the reference")
