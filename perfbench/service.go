package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"ruu"
	"ruu/internal/fabric"
	"ruu/internal/server"
	"ruu/internal/store"
)

// The service workloads run every server in the benchmark process, each
// on its own loopback TCP listener, and talk to them over real HTTP.

// timedHandler wraps a server's handler. While the tracer is on, every
// request it serves becomes a span of layer in process proc, carrying
// the request ID the server answered with.
type timedHandler struct {
	next     http.Handler
	tr       *tracer
	layer    string
	proc     string
	inflight atomic.Int64
	served   atomic.Int64 // requests served while tracing
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.recording() {
		h.next.ServeHTTP(w, r)
		return
	}
	track := int(h.inflight.Add(1))
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	end := h.tr.now()
	h.inflight.Add(-1)
	h.served.Add(1)
	h.tr.add(span{layer: h.layer, proc: h.proc, track: track, req: w.Header().Get("X-Request-ID"), start: start, end: end})
}

// service is one running server: a Runner (optionally over a store)
// behind server.New's handler on a loopback listener.
type service struct {
	store  *store.Store
	runner *ruu.Runner
	h      *timedHandler
	ts     *httptest.Server
	coord  *fabric.Coordinator
}

// serviceConfig says how to build a service.
type serviceConfig struct {
	storeDir     string // "" for no store
	workers      int
	cacheEntries int
	fabric       *fabric.Coordinator
	tr           *tracer
	layer, proc  string
}

// startService opens the store (timing store.Open), builds the Runner
// and server, and starts listening.
func startService(c serviceConfig) (*service, time.Duration, error) {
	s := &service{coord: c.fabric}
	var open time.Duration
	if c.storeDir != "" {
		t0 := time.Now()
		st, err := store.Open(c.storeDir, store.Options{})
		open = time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		s.store = st
	}
	s.runner = ruu.NewRunner(ruu.RunnerConfig{Workers: c.workers, CacheEntries: c.cacheEntries, Store: s.store})
	srv := server.New(server.Config{Runner: s.runner, Store: s.store, Fabric: c.fabric})
	s.h = &timedHandler{next: srv.Handler(), tr: c.tr, layer: c.layer, proc: c.proc}
	s.ts = httptest.NewServer(s.h)
	return s, open, nil
}

// close stops the listener, then the Runner, the coordinator and the
// store.
func (s *service) close() error {
	s.ts.Close()
	s.runner.Close()
	if s.coord != nil {
		s.coord.Close()
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// cacheHits returns the Runner's result-cache hit and miss counts.
func (s *service) cacheHits() (hits, misses int64) {
	c := s.runner.Pool().Metrics().Cache
	return c.Hits, c.Misses
}

// storeStats is the store's snapshot (zero without a store).
func (s *service) storeStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// newClient returns an HTTP client keeping up to conns connections to
// each server alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// errShed is a 429 answer; runs count them separately, because any shed
// request makes a run invalid.
var errShed = errors.New("status 429 (load shed)")

// post sends body to url with the op's request ID and returns the
// answer of a 200; any other status is an error.
func post(client *http.Client, url, req string, body []byte) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", req)
	resp, err := client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return data, nil
	case http.StatusTooManyRequests:
		return nil, errShed
	default:
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
}

// storeDelta is the change in a store's counters between two snapshots.
func storeDelta(a, b store.Stats) store.Stats {
	return store.Stats{
		Entries:      b.Entries - a.Entries,
		Hits:         b.Hits - a.Hits,
		Misses:       b.Misses - a.Misses,
		Evictions:    b.Evictions - a.Evictions,
		Quarantined:  b.Quarantined - a.Quarantined,
		BytesWritten: b.BytesWritten - a.BytesWritten,
		ReadErrors:   b.ReadErrors - a.ReadErrors,
		WriteErrors:  b.WriteErrors - a.WriteErrors,
	}
}

// storeLayer reports store reads and errors from d; writes and bytes
// from w (the same delta, or set-up's fill where the timed region
// writes nothing by design), and open time from opens.
func storeLayer(rep *layerReport, d, w store.Stats, writesOf string, opens []time.Duration) {
	reads := d.Hits + d.Misses
	rep.put("store.reads", float64(reads), reads, "store lookups while traced")
	rep.put("store.hit_ratio", ratio(float64(d.Hits), float64(reads)), reads, "store lookups while traced")
	errs := d.ReadErrors + d.WriteErrors + d.Quarantined
	rep.put("store.errors", float64(errs), reads, "store lookups while traced (read+write errors, quarantined entries)")
	writes := int64(w.Entries) + w.Evictions
	rep.put("store.writes", float64(writes), writes, writesOf)
	rep.put("store.bytes_written", float64(w.BytesWritten), writes, writesOf)
	var ops []float64
	for _, o := range opens {
		ops = append(ops, ms(o))
	}
	rep.put("store.open_ms", median(ops), int64(len(ops)), "store.Open calls (median)")
}

// outcomeOf decodes the outcome of a POST /v1/simulate answer, keeping
// its exact bytes for comparison.
func outcomeOf(body []byte) (json.RawMessage, ruu.SimOutcome, error) {
	var resp struct {
		Outcome json.RawMessage `json:"outcome"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, ruu.SimOutcome{}, fmt.Errorf("bad answer: %w", err)
	}
	var out ruu.SimOutcome
	if err := json.Unmarshal(resp.Outcome, &out); err != nil {
		return nil, ruu.SimOutcome{}, fmt.Errorf("bad outcome: %w", err)
	}
	return resp.Outcome, out, nil
}
