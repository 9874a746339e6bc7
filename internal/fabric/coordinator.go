package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ruu/internal/obs"
)

// Config parameterises a Coordinator.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"). At least
	// one is required.
	Workers []string
	// Replicas is the virtual-node count per worker (<= 0 means
	// DefaultReplicas).
	Replicas int
	// MaxAttempts bounds tries per request across distinct workers
	// (<= 0 means 3; clamped to the worker count by the ring).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between attempts (defaults 50ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HealthInterval is the period of the background health prober; 0
	// disables it (workers still leave the ring on connect failure,
	// but nothing re-admits them).
	HealthInterval time.Duration
	// HealthPath is the worker liveness endpoint (default "/healthz",
	// matching internal/server's route).
	HealthPath string
	// Client is the HTTP client for forwarding and probes (default: a
	// client with a 60s timeout).
	Client *http.Client
}

// Result is a worker's answer to a forwarded request.
type Result struct {
	Status int
	Body   []byte
	Worker string // which worker answered
}

// Stats is a snapshot of the coordinator's routing counters.
type Stats struct {
	// Routed counts requests entering Do; Retried counts extra
	// attempts beyond each request's first.
	Routed  int64 `json:"routed"`
	Retried int64 `json:"retried"`
}

// Coordinator forwards content-addressed jobs to workers selected by
// the consistent-hash ring. A connect failure removes the worker from
// the ring (the prober re-admits it once healthy) and the request is
// retried on the next distinct worker with capped exponential backoff
// and jitter; 5xx and 429 answers are retried the same way without
// ejecting the worker. Simulation requests are idempotent — identical
// keys produce identical bytes on any worker — which is what makes
// blind retry safe.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	client *http.Client

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	routed  atomic.Int64
	retried atomic.Int64
}

// New builds a coordinator over cfg.Workers, all initially in the
// ring, and starts the health prober if configured. Close releases it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.HealthPath == "" {
		cfg.HealthPath = "/healthz"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		client: client,
		stop:   make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.ring.Add(w)
	}
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the health prober. In-flight Do calls finish normally.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Workers returns each configured worker and whether it is currently
// in the ring (healthy).
func (c *Coordinator) Workers() map[string]bool {
	out := make(map[string]bool, len(c.cfg.Workers))
	for _, w := range c.cfg.Workers {
		out[w] = c.ring.Has(w)
	}
	return out
}

// Stats returns a snapshot of the routing counters.
func (c *Coordinator) Stats() Stats {
	return Stats{Routed: c.routed.Load(), Retried: c.retried.Load()}
}

// Do posts a JSON body to path on the worker owning key, retrying up
// to MaxAttempts distinct workers on connect failure, 5xx, or 429. Any
// other status is the worker's answer and is returned as-is. The error
// return is non-nil only when no worker produced an answer.
func (c *Coordinator) Do(ctx context.Context, key Key, path string, body []byte) (*Result, error) {
	c.routed.Add(1)
	workers := c.ring.LookupN(key, c.cfg.MaxAttempts)
	if len(workers) == 0 {
		// Every worker is ejected: fall back to the full configured
		// set so a transiently empty ring degrades to blind retry
		// rather than instant failure.
		workers = c.cfg.Workers
		if len(workers) > c.cfg.MaxAttempts {
			workers = workers[:c.cfg.MaxAttempts]
		}
	}
	var lastErr error
	for i, w := range workers {
		if i > 0 {
			c.retried.Add(1)
			if err := c.backoff(ctx, i); err != nil {
				return nil, err
			}
		}
		res, err := c.post(ctx, w, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Connect-level failure: eject the worker; the prober
			// re-admits it once it answers health checks again.
			c.ring.Remove(w)
			lastErr = err
			continue
		}
		if res.Status >= 500 || res.Status == http.StatusTooManyRequests {
			lastErr = fmt.Errorf("fabric: worker %s: status %d", w, res.Status)
			continue
		}
		return res, nil
	}
	return nil, fmt.Errorf("fabric: all %d workers failed for key %x: %w", len(workers), key[:4], lastErr)
}

// post performs one forwarded request.
func (c *Coordinator) post(ctx context.Context, worker, path string, body []byte) (*Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.RequestIDFrom(ctx); id != "" {
		// The worker logs and traces the item under the batch's ID.
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return &Result{Status: resp.StatusCode, Body: data, Worker: worker}, nil
}

// backoff sleeps the capped-exponential, jittered delay for attempt i
// (>= 1), or returns early with the context's error.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	// Full jitter in [d/2, d): desynchronizes retry storms without
	// collapsing the floor below half the intended delay.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// probeLoop periodically health-checks every configured worker,
// ejecting failures and re-admitting recoveries.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.probeAll()
		}
	}
}

// probeAll runs one health sweep.
func (c *Coordinator) probeAll() {
	for _, w := range c.cfg.Workers {
		resp, err := c.client.Get(w + c.cfg.HealthPath)
		healthy := err == nil && resp.StatusCode == http.StatusOK
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		if healthy {
			c.ring.Add(w)
		} else {
			c.ring.Remove(w)
		}
	}
}
