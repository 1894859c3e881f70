package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/skyline"
	"repro/internal/store"
)

// served is one running server generation behind a loopback listener.
type served struct {
	srv   *skyline.Server
	cat   *catalog.Catalog
	cache *core.Cache
	store *store.Store
	hs    *http.Server
	base  string
	done  chan error
}

// setupTimes splits one set-up into the parts the ledger reports.
type setupTimes struct {
	total   time.Duration // run start → first /healthz 200
	catalog time.Duration // catalog build
	open    time.Duration // store.Open recovery scan (0 without a store)
}

// serverOptions mirrors cmd/skyline's defaults: admission at
// 4×GOMAXPROCS slots with the default queue, no deadline, no quotas,
// per-request workers capped at GOMAXPROCS, a fresh analysis cache
// (what a new process starts with) and the configured store.
func serverOptions(cache *core.Cache, st *store.Store) skyline.Options {
	return skyline.Options{
		Cache:       cache,
		MaxInflight: 4 * runtime.GOMAXPROCS(0),
		Store:       st,
	}
}

// start builds a server generation the way a process start does —
// catalog, store recovery scan, server — puts it behind a loopback
// listener and waits for the first /healthz 200.
func start(w *workload, storeDir string, limit int64, client *http.Client) (*served, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	s := &served{cat: w.newCatalog(), cache: core.NewCache(), done: make(chan error, 1)}
	t.catalog = time.Since(t0)
	if w.store {
		t1 := time.Now()
		st, err := store.Open(storeDir, limit)
		if err != nil {
			return nil, t, err
		}
		t.open = time.Since(t1)
		s.store = st
	}
	s.srv = skyline.NewServerWith(s.cat, serverOptions(s.cache, s.store))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, fmt.Errorf("listen: %w", err)
	}
	s.hs = &http.Server{Handler: s.srv}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.hs.Serve(ln) }()
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, t, fmt.Errorf("server never answered /healthz: %v", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.total = time.Since(t0)
	return s, t, nil
}

// stop closes the listener and every connection, and waits for Serve
// to return.
func (s *served) stop() {
	_ = s.hs.Close() // the only error is the listener's, which Serve reports
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("warning: server generation ended with %v\n", err)
	}
}

// recorder is the benchmark's in-process ResponseWriter: it keeps the
// body and counts flushes, so the traced run sees exactly what the
// handler wrote and how often it pushed bytes to the client.
type recorder struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	flushes int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) Flush() { r.flushes++ }

// serveInProcess runs one request through the handler without a socket.
func serveInProcess(h http.Handler, u string) *recorder {
	rec := newRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return rec
}
