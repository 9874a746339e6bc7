package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ruu"
	"ruu/internal/fabric"
	"ruu/internal/store"
)

// batch-fabric: op = one POST /v1/batch of batchItems distinct items to
// a coordinator fronting fabricWorkers loopback workers, each with its
// own single-worker Runner and its own store (as ruuserve -store-dir
// workers run). One client reads each NDJSON stream to the end. No item
// repeats within a run, so every item is simulated, verified and
// written to a worker's store.

const (
	batchItems     = 8
	fabricWorkers  = 2
	batchAsmEvery  = 2 // half the items are sent as assembly text
	batchSetupReps = 9
	// batchChecks is how many answered items, sampled uniformly with the
	// seed, are re-simulated serially after the timed region.
	batchChecks = 16
	// batchReplayOps is how many traced ops have their in-program calls
	// replayed.
	batchReplayOps = 8
)

// fabricRig is a coordinator service and its workers.
type fabricRig struct {
	coord   *service
	workers []*service
}

// startFabric starts fabricWorkers workers on fresh stores under dir and
// a coordinator (default cache) over them; it returns the workers'
// store.Open times.
func startFabric(dir string, tr *tracer) (*fabricRig, []time.Duration, error) {
	rig := &fabricRig{}
	var opens []time.Duration
	var urls []string
	for w := 0; w < fabricWorkers; w++ {
		s, open, err := startService(serviceConfig{
			storeDir: filepath.Join(dir, fmt.Sprintf("worker%d", w)),
			workers:  1,
			tr:       tr, layer: "fabric.worker", proc: fmt.Sprintf("worker %d", w),
		})
		if err != nil {
			rig.close()
			return nil, nil, err
		}
		rig.workers = append(rig.workers, s)
		opens = append(opens, open)
		urls = append(urls, s.ts.URL)
	}
	co, err := fabric.New(fabric.Config{Workers: urls})
	if err != nil {
		rig.close()
		return nil, nil, err
	}
	rig.coord, _, err = startService(serviceConfig{fabric: co, tr: tr, layer: "server.handler", proc: "coordinator"})
	if err != nil {
		co.Close()
		rig.close()
		return nil, nil, err
	}
	return rig, opens, nil
}

func (r *fabricRig) close() error {
	var errs []error
	if r.coord != nil {
		errs = append(errs, r.coord.close())
	}
	for _, w := range r.workers {
		errs = append(errs, w.close())
	}
	return errors.Join(errs...)
}

// all is the coordinator and the workers.
func (r *fabricRig) all() []*service { return append([]*service{r.coord}, r.workers...) }

// cacheHits sums the result-cache counters of every Runner in the rig.
func (r *fabricRig) cacheHits() (hits, misses int64) {
	for _, s := range r.all() {
		h, m := s.cacheHits()
		hits += h
		misses += m
	}
	return hits, misses
}

// addStats sums the store counters of ss.
func addStats(ss []*service) store.Stats {
	var t store.Stats
	for _, s := range ss {
		st := s.storeStats()
		t.Entries += st.Entries
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
		t.Quarantined += st.Quarantined
		t.BytesWritten += st.BytesWritten
		t.ReadErrors += st.ReadErrors
		t.WriteErrors += st.WriteErrors
	}
	return t
}

// answered is one item's checked outcome, kept for the serial re-check.
type answered struct {
	it  item
	out ruu.SimOutcome
}

// batchClient posts batches to a coordinator and checks their streams.
type batchClient struct {
	stream *itemStream
	url    string
	post   func(url, req string, body []byte) ([]byte, error)
	// sample is a seeded uniform sample (reservoir) of batchChecks
	// answered items, out of answered so far, for the serial re-check.
	sample   []answered
	answered int
	pick     *rand.Rand
	byOp     map[int64][]item // traced op -> its items, for the replays
	wrapped  error
	shed     int64
}

// do posts the next batch as op id and checks every line: index order,
// no error line, an outcome verified against the functional reference.
func (b *batchClient) do(id int64, note bool) (int64, error) {
	items, err := b.stream.take(batchItems)
	if err != nil {
		b.wrapped = err
		return 0, err
	}
	if note {
		b.byOp[id] = items
	}
	body, err := json.Marshal(struct {
		Items []item `json:"items"`
	}{items})
	if err != nil {
		return 0, err
	}
	resp, err := b.post(b.url, reqID(id), body)
	if err != nil {
		if errors.Is(err, errShed) {
			b.shed++
		}
		return 0, err
	}
	outs, err := checkBatch(resp, len(items))
	if err != nil {
		return 0, err
	}
	var instr int64
	for i, out := range outs {
		instr += out.Instructions
		b.keep(answered{items[i], out})
	}
	return instr, nil
}

// keep offers one answered item to the re-check sample.
func (b *batchClient) keep(a answered) {
	b.answered++
	if len(b.sample) < batchChecks {
		b.sample = append(b.sample, a)
	} else if j := b.pick.Intn(b.answered); j < batchChecks {
		b.sample[j] = a
	}
}

// checkBatch parses an NDJSON batch stream of n items and returns the
// outcomes; an error line, a missing or out-of-order line, or an
// unverified outcome is a wrong answer.
func checkBatch(stream []byte, n int) ([]ruu.SimOutcome, error) {
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	var outs []ruu.SimOutcome
	for sc.Scan() {
		var line struct {
			Index   int             `json:"index"`
			Outcome *ruu.SimOutcome `json:"outcome"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad line %d: %w", len(outs), err)
		}
		switch {
		case line.Index != len(outs):
			return nil, fmt.Errorf("%w: line %d has index %d", errWrongAnswer, len(outs), line.Index)
		case line.Error != "":
			return nil, fmt.Errorf("item %d: %s", line.Index, line.Error)
		case line.Outcome == nil || !line.Outcome.Verified || line.Outcome.Trap != "":
			return nil, fmt.Errorf("%w: item %d not verified: %+v", errWrongAnswer, line.Index, line.Outcome)
		}
		outs = append(outs, *line.Outcome)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(outs) != n {
		return nil, fmt.Errorf("%w: %d lines for %d items", errWrongAnswer, len(outs), n)
	}
	return outs, nil
}

// recheck re-simulates answered items serially, on a Runner with no
// pool and no cache, and compares the outcomes exactly.
func recheck(sample []answered) error {
	serial := &ruu.Runner{}
	for _, a := range sample {
		u, err := a.it.unit()
		if err != nil {
			return err
		}
		want, err := serial.RunProgram(context.Background(), a.it.config(), u, true)
		if err != nil {
			return fmt.Errorf("serial re-check of %+v: %w", a.it.config(), err)
		}
		if !reflect.DeepEqual(a.out, want) {
			return fmt.Errorf("%w: fabric answered %+v, serial run %+v", errWrongAnswer, a.out, want)
		}
	}
	return nil
}

func runBatchFabric(o opts) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	client := newClient(fabricWorkers)
	defer client.CloseIdleConnections()
	bc := &batchClient{
		stream: newItemStream(itemSpace(), o.seed, batchAsmEvery),
		post:   func(url, req string, body []byte) ([]byte, error) { return post(client, url, req, body) },
		pick:   rand.New(rand.NewSource(o.seed)),
		byOp:   map[int64][]item{},
	}

	// Set-up: bring the fabric up on empty stores and answer a first
	// batch of its own items, several times; the last rig stays up.
	var (
		rig    *fabricRig
		setups []time.Duration
		opens  []time.Duration
	)
	for rep := 0; rep < batchSetupReps; rep++ {
		dir := filepath.Join(o.outDir, "batch-fabric", fmt.Sprint(rep))
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		r, open, err := startFabric(dir, tr)
		if err != nil {
			return result{}, err
		}
		bc.url = r.coord.ts.URL + "/v1/batch"
		_, err = bc.do(-1-int64(rep), false)
		setups = append(setups, time.Since(t0))
		opens = append(opens, open...)
		if err != nil {
			r.close()
			return result{}, fmt.Errorf("set-up batch: %w", err)
		}
		if rep < batchSetupReps-1 {
			if err := r.close(); err != nil {
				return result{}, err
			}
			continue
		}
		rig = r
	}
	defer rig.close()
	h0, _ := rig.cacheHits()
	op := func(_ int, id int64) (int64, error) { return bc.do(id, tr.recording()) }
	guard := func() []error {
		var errs []error
		if h, _ := rig.cacheHits(); h != h0 {
			errs = append(errs, fmt.Errorf("batch-fabric recorded %d cache hits", h-h0))
		}
		if n := rig.coord.coord.Stats().Retried; n != 0 {
			errs = append(errs, fmt.Errorf("the fabric retried %d requests", n))
		}
		if bc.shed != 0 {
			errs = append(errs, fmt.Errorf("%d batches shed with 429", bc.shed))
		}
		if bc.wrapped != nil {
			errs = append(errs, bc.wrapped)
		}
		if err := recheck(bc.sample); err != nil {
			errs = append(errs, err)
		}
		return errs
	}

	if !o.trace {
		l := closedLoop(1, o.runFor(), 0, op)
		return finish(endToEndMetrics(l, setups), guard(), l), nil
	}

	half := o.runFor() / 2
	plain := closedLoop(1, half, 0, op)
	ch0, cm0 := rig.cacheHits()
	s0 := addStats(rig.workers)
	f0 := rig.coord.coord.Stats()
	tr.on.Store(true)
	traced := closedLoop(1, half, plain.ops(), tracedOp(tr, "client.request", op))
	tr.on.Store(false)
	ch1, cm1 := rig.cacheHits()
	s1 := addStats(rig.workers)
	f1 := rig.coord.coord.Stats()
	jobs := map[string][]serverJob{}
	for i, s := range rig.all() {
		proc := "coordinator"
		if i > 0 {
			proc = fmt.Sprintf("worker %d", i-1)
		}
		j, err := fetchServerJobs(client, s.ts.URL)
		if err != nil {
			return result{}, err
		}
		jobs[proc] = j
	}
	tr.on.Store(true)
	tr.linkByReq("client.request", "server.handler")
	tr.addServerJobs("coordinator", "server.handler", jobs["coordinator"])
	// The fabric does not forward X-Request-ID: a worker's handler span
	// joins its batch by time, and its own jobs by the worker's ID.
	tr.linkByTime("server.handler", "fabric.worker")
	for w := 0; w < fabricWorkers; w++ {
		proc := fmt.Sprintf("worker %d", w)
		tr.addServerJobs(proc, "fabric.worker", jobs[proc])
	}

	rep := newLayerReport()
	spans := tr.all()
	poolLayer(rep, spans, hasPrefix("worker"), fabricWorkers, traced.elapsed)
	httpLayer(rep, spans, "client.request", "server.handler")
	rep.put("server.shed_429", float64(bc.shed), plain.ops()+traced.ops(), "batches")
	hits, misses := ch1-ch0, cm1-cm0
	rep.put("sched.cache_hits", float64(hits), hits+misses, "cache lookups while traced, coordinator and workers")
	rep.put("sched.cache_misses", float64(misses), hits+misses, "cache lookups while traced, coordinator and workers")
	rep.put("sched.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), hits+misses, "cache lookups while traced, coordinator and workers")
	d := storeDelta(s0, s1)
	storeLayer(rep, d, d, "new entries written by the workers while traced", opens)
	fabricLayer(rep, spans, rig, traced.elapsed, f1.Routed-f0.Routed, f1.Retried)

	var keyMS, asmMS, refMS []float64
	eng := engineTimer{}
	for _, id := range sampleOps(traced, batchReplayOps) {
		req := reqID(id)
		for _, it := range bc.byOp[id] {
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
			if err := eng.run(tr, req, it.config(), u, func() (*ruu.State, error) { return ruu.NewState(u), nil }); err != nil {
				return result{}, err
			}
			d, err = tr.replay("exec.Reference", req, func() error { _, _, err := ruu.Reference(u); return err })
			if err != nil {
				return result{}, err
			}
			refMS = append(refMS, ms(d))
		}
	}
	rep.put("sched.key_ms", median(keyMS), int64(len(keyMS)), "replayed ProgramKey calls (median; the program derives each item's key twice)")
	rep.put("asm.assemble_ms", median(asmMS), int64(len(asmMS)), "replayed Assemble calls on asm items (median)")
	rep.put("exec.reference_ms", median(refMS), int64(len(refMS)), "replayed Reference calls (median)")
	eng.report(rep)
	rep.na("batch-fabric runs no sweep, so no dataflow limit", "dfa.dataflow_limit_ms")
	runtimeLayer(rep, plain, traced)
	res := finish(rep.metrics, guard(), plain, traced)
	set(res.Metrics, "error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, writeLayerFiles(o.outDir, o.info, rep, tr.all())
}

// fabricLayer reports how busy and how evenly loaded the workers were
// while traced, from their handler spans, and the coordinator's routing
// counters.
func fabricLayer(rep *layerReport, spans []span, rig *fabricRig, elapsed time.Duration, routed, retried int64) {
	var busy time.Duration
	for _, s := range spans {
		if s.layer == "fabric.worker" {
			busy += s.dur()
		}
	}
	var served []float64
	var total int64
	for _, w := range rig.workers {
		n := w.h.served.Load()
		served = append(served, float64(n))
		total += n
	}
	maxServed, mean := 0.0, float64(total)/float64(len(served))
	for _, n := range served {
		maxServed = max(maxServed, n)
	}
	rep.put("fabric.worker_busy_share", ratio(float64(busy), float64(len(served))*float64(elapsed)), total, "worker requests while traced")
	rep.put("fabric.worker_imbalance", ratio(maxServed, mean), total, "worker requests while traced (max over mean per worker)")
	rep.put("fabric.routed", float64(routed), routed, "requests routed while traced")
	rep.put("fabric.retried", float64(retried), routed, "retries over the whole run")
}
