package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ruu"
	"ruu/internal/store"
)

// serve-warm: op = one POST /v1/simulate to one server whose Runner has
// an in-memory cache much smaller than the working set, over a store
// that holds all of it. No simulation runs: the time goes to key
// derivation, store reads, cache hits and HTTP/JSON. nproc callers pick
// working-set items uniformly.

const (
	// serveWorkingSet is the number of distinct (config, kernel) items.
	serveWorkingSet = 500
	// serveCacheEntries sizes the memory cache: about a quarter of the
	// working set, so most requests read the store.
	serveCacheEntries = 128
	// serveAsmEvery: one item in this many is sent as assembly text.
	serveAsmEvery = 4
	// serveSetupReps is how many times set-up is timed (setup_s is the
	// median): fill the working set into an empty store through the
	// API, close, and restart on the filled store.
	serveSetupReps = 3
	// serveReplayOps is how many traced ops have their in-program calls
	// replayed.
	serveReplayOps = 200
)

func runServeWarm(o opts) (result, error) {
	items, err := newItemStream(itemSpace(), o.seed, serveAsmEvery).take(serveWorkingSet)
	if err != nil {
		return result{}, err
	}
	bodies := make([][]byte, len(items))
	for i, it := range items {
		if bodies[i], err = json.Marshal(it); err != nil {
			return result{}, err
		}
	}
	nproc := o.info.GOMAXPROCS
	client := newClient(nproc)
	defer client.CloseIdleConnections()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cfg := serviceConfig{workers: nproc, cacheEntries: serveCacheEntries, tr: tr, layer: "server.handler", proc: "server"}

	var (
		want   [][]byte // each item's outcome, as the fill answered it
		instr  []int64
		setups []time.Duration
		opens  []time.Duration
		filled store.Stats // the last fill's store counters
		svc    *service
	)
	for rep := 0; rep < serveSetupReps; rep++ {
		cfg.storeDir = filepath.Join(o.outDir, "serve-warm", fmt.Sprint(rep))
		if err := os.RemoveAll(cfg.storeDir); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		got, in, written, err := serveFill(cfg, client, bodies, nproc)
		if err != nil {
			return result{}, fmt.Errorf("fill: %w", err)
		}
		s, open, err := startService(cfg)
		if err != nil {
			return result{}, fmt.Errorf("restart: %w", err)
		}
		setups = append(setups, time.Since(t0))
		opens = append(opens, open)
		if want == nil {
			want, instr = got, in
		} else if err := sameOutcomes(got, want); err != nil {
			s.close()
			return result{}, fmt.Errorf("fill %d: %w", rep, err)
		}
		filled = written
		if rep < serveSetupReps-1 {
			if err := s.close(); err != nil {
				return result{}, err
			}
			continue
		}
		svc = s
	}
	defer svc.close()

	url := svc.ts.URL + "/v1/simulate"
	var shed atomic.Int64
	picks := make([]*rand.Rand, nproc)
	for c := range picks {
		picks[c] = rand.New(rand.NewSource(o.seed*1000 + int64(c)))
	}
	var notedMu sync.Mutex
	noted := map[int64]int{} // traced op -> item, for the replays
	op := func(c int, id int64) (int64, error) {
		i := picks[c].Intn(len(items))
		if tr.recording() {
			notedMu.Lock()
			noted[id] = i
			notedMu.Unlock()
		}
		body, err := post(client, url, reqID(id), bodies[i])
		if err != nil {
			if errors.Is(err, errShed) {
				shed.Add(1)
			}
			return 0, err
		}
		if err := checkSimulate(body, want[i]); err != nil {
			return 0, fmt.Errorf("item %d: %w", i, err)
		}
		return instr[i], nil
	}
	guard := func() []error {
		if n := shed.Load(); n != 0 {
			return []error{fmt.Errorf("%d requests shed with 429", n)}
		}
		return nil
	}

	if !o.trace {
		l := closedLoop(nproc, o.runFor(), 0, op)
		return finish(endToEndMetrics(l, setups), guard(), l), nil
	}

	half := o.runFor() / 2
	plain := closedLoop(nproc, half, 0, op)
	h0, m0 := svc.cacheHits()
	s0 := svc.storeStats()
	tr.on.Store(true)
	traced := closedLoop(nproc, half, plain.ops(), tracedOp(tr, "client.request", op))
	tr.on.Store(false)
	h1, m1 := svc.cacheHits()
	s1 := svc.storeStats()
	jobs, err := fetchServerJobs(client, svc.ts.URL)
	if err != nil {
		return result{}, err
	}
	tr.on.Store(true)
	tr.linkByReq("client.request", "server.handler")
	tr.addServerJobs("server", "server.handler", jobs)

	rep := newLayerReport()
	spans := tr.all()
	poolLayer(rep, spans, hasPrefix("server"), nproc, traced.elapsed)
	httpLayer(rep, spans, "client.request", "server.handler")
	rep.put("server.shed_429", float64(shed.Load()), plain.ops()+traced.ops(), "requests")
	hits, misses := h1-h0, m1-m0
	rep.put("sched.cache_hits", float64(hits), hits+misses, "cache lookups while traced")
	rep.put("sched.cache_misses", float64(misses), hits+misses, "cache lookups while traced")
	rep.put("sched.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), hits+misses, "cache lookups while traced")
	storeLayer(rep, storeDelta(s0, s1), filled, "new entries written by set-up's fill (the timed region writes none)", opens)

	var keyMS, asmMS []float64
	for _, id := range sampleOps(traced, serveReplayOps) {
		it := items[noted[id]]
		req := reqID(id)
		if it.Asm != "" {
			d, err := tr.replay("asm.Assemble", req, func() error { _, err := it.unit(); return err })
			if err != nil {
				return result{}, err
			}
			asmMS = append(asmMS, ms(d))
		}
		u, err := it.unit()
		if err != nil {
			return result{}, err
		}
		d, _ := tr.replay("sched.ProgramKey", req, func() error { keyProgram(it, u); return nil })
		keyMS = append(keyMS, ms(d))
	}
	rep.put("sched.key_ms", median(keyMS), int64(len(keyMS)), "replayed ProgramKey calls (median)")
	rep.put("asm.assemble_ms", median(asmMS), int64(len(asmMS)), "replayed Assemble calls on asm items (median)")
	rep.na("no simulation runs on serve-warm: every answer comes from the cache or the store",
		"dfa.dataflow_limit_ms", "exec.reference_ms", "engine.ns_per_simcycle.simple",
		"engine.ns_per_simcycle.rstu", "engine.ns_per_simcycle.ruu", "engine.ns_per_simcycle.ruu_spec")
	rep.na("serve-warm has one server and no fabric", "fabric.worker_busy_share",
		"fabric.worker_imbalance", "fabric.routed", "fabric.retried")
	runtimeLayer(rep, plain, traced)
	res := finish(rep.metrics, guard(), plain, traced)
	set(res.Metrics, "error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, writeLayerFiles(o.outDir, o.info, rep, tr.all())
}

// serveFill starts an empty service on cfg.storeDir, posts every body
// once from callers goroutines, records each outcome, and closes the
// service. It returns the outcomes, their instruction counts, and the
// store's counters at close.
func serveFill(cfg serviceConfig, client *http.Client, bodies [][]byte, callers int) ([][]byte, []int64, store.Stats, error) {
	s, _, err := startService(cfg)
	if err != nil {
		return nil, nil, store.Stats{}, err
	}
	url := s.ts.URL + "/v1/simulate"
	outs := make([][]byte, len(bodies))
	instr := make([]int64, len(bodies))
	errs := make([]error, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				body, err := post(client, url, fmt.Sprintf("fill-%d", i), bodies[i])
				if err != nil {
					errs[i] = err
					continue
				}
				raw, out, err := outcomeOf(body)
				if err == nil && !out.Verified {
					err = fmt.Errorf("%w: item %d not verified", errWrongAnswer, i)
				}
				outs[i], instr[i], errs[i] = raw, out.Instructions, err
			}
		}()
	}
	wg.Wait()
	st := s.storeStats()
	if err := s.close(); err != nil {
		return nil, nil, st, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, st, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return outs, instr, st, nil
}

// checkSimulate reports whether a POST /v1/simulate answer carries
// exactly the outcome want.
func checkSimulate(body, want []byte) error {
	got, _, err := outcomeOf(body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: answered %s, fill answered %s", errWrongAnswer, got, want)
	}
	return nil
}

// sameOutcomes reports whether two fills answered every item alike.
func sameOutcomes(got, want [][]byte) error {
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("%w: item %d answered %s, first fill %s", errWrongAnswer, i, got[i], want[i])
		}
	}
	return nil
}

// keyProgram derives the job key the service derives for it.
func keyProgram(it item, u *ruu.Unit) { ruu.ProgramKey(it.config(), u, true) }
