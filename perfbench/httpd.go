package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dotprov/internal/serve"
)

// loopback is an advisor server on a loopback port plus the benchmark's
// keep-alive client.
type loopback struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

// startLoopback serves srv on 127.0.0.1 on a kernel-chosen port.
func startLoopback(srv *serve.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.http.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return lb, nil
}

// post sends body to path and returns the status and response body.
func (lb *loopback) post(path, contentType string, body []byte) (int, []byte, error) {
	resp, err := lb.client.Post(lb.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postJSON posts v as JSON and decodes a 200 answer into out.
func (lb *loopback) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	status, b, err := lb.post(path, "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// health reads /v1/healthz.
func (lb *loopback) health() (serve.HealthResponse, error) {
	var h serve.HealthResponse
	resp, err := lb.client.Get(lb.base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// close shuts the HTTP server and the advisor down and waits for the
// serving goroutine to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = lb.http.Shutdown(ctx) // a forced close below covers a timeout
	_ = lb.http.Close()
	<-lb.done
	lb.client.CloseIdleConnections()
	_ = lb.srv.Close() // a drain that timed out loses nothing the run still reads
}
