package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ruu"
	"ruu/internal/livermore"
	"ruu/internal/obs"
)

// sweep-cold: op = one Runner.Sweep(cfg, []int{n}) call, i.e. one cell
// of Tables 2-7, on a Runner with nproc workers and no result cache, from
// one caller. The engines do most of the work; HTTP is bypassed and no
// cache can turn the run warm.

const (
	// sweepSetupReps is how many times set-up (a fresh Runner answering
	// its first cell) is timed; setup_s is the median.
	sweepSetupReps = 9
	// sweepReplayOps is how many traced ops have their in-program calls
	// replayed for the per-layer metrics.
	sweepReplayOps = 8
)

// sweepSetupCell is the cell set-up answers, the same for every seed:
// Table 4 (RUU, full bypass) at 10 entries.
var sweepSetupCell = cell{4, ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassFull}, 10}

func runSweepCold(o opts) (result, error) {
	cells := sweepCells()
	refs, err := sweepReferences(append(cells, sweepSetupCell), o.info.NProc)
	if err != nil {
		return result{}, err
	}
	setupRef := refs[len(cells)]
	// Every kernel run of a cell is verified against the kernel's Go
	// mirror inside the program, so a checked cell committed the
	// reference instruction count: the suite's, once for the simple
	// baseline and once at the cell's entry count.
	base, err := ruu.RunKernels(ruu.Config{Engine: ruu.EngineSimple})
	if err != nil {
		return result{}, err
	}
	cellInstr := 2 * ruu.Totals(base).Instructions

	var runner *ruu.Runner
	var setups []time.Duration
	for i := 0; i < sweepSetupReps; i++ {
		if runner != nil {
			runner.Close()
		}
		t0 := time.Now()
		runner = ruu.NewRunner(ruu.RunnerConfig{Workers: o.info.GOMAXPROCS, CacheEntries: -1})
		rows, err := runner.Sweep(context.Background(), sweepSetupCell.cfg, []int{sweepSetupCell.n})
		setups = append(setups, time.Since(t0))
		if err == nil {
			err = checkRows(rows, setupRef)
		}
		if err != nil {
			runner.Close()
			return result{}, fmt.Errorf("set-up cell %v: %w", sweepSetupCell, err)
		}
	}
	defer runner.Close()

	// A cell never takes under 10 ms, so this many passes outlast the run.
	order := cellOrder(o.seed, int(o.seconds*100)/len(cells)+2)
	op := func(_ int, id int64) (int64, error) {
		c := cells[order[id%int64(len(order))]]
		ctx := obs.WithRequestID(context.Background(), reqID(id))
		rows, err := runner.Sweep(ctx, c.cfg, []int{c.n})
		if err == nil {
			err = checkRows(rows, refs[order[id%int64(len(order))]])
		}
		if err != nil {
			return 0, fmt.Errorf("%v: %w", c, err)
		}
		return cellInstr, nil
	}
	guard := func() []error {
		if h := runner.Pool().Metrics().Cache.Hits; h != 0 {
			return []error{fmt.Errorf("sweep-cold recorded %d cache hits", h)}
		}
		return nil
	}

	if !o.trace {
		l := closedLoop(1, o.runFor(), 0, op)
		return finish(endToEndMetrics(l, setups), guard(), l), nil
	}

	half := o.runFor() / 2
	plain := closedLoop(1, half, 0, op)
	tr := newTracer()
	runner.Pool().SetOnJobSpan(func(sp obs.Span) {
		tr.add(span{layer: "sched.queue", proc: "runner pool", track: sp.Worker, req: sp.RequestID,
			start: tr.wall(sp.EnqueueNS), end: tr.wall(sp.StartNS)})
		tr.add(span{layer: "sched.job", proc: "runner pool", track: sp.Worker, req: sp.RequestID,
			start: tr.wall(sp.StartNS), end: tr.wall(sp.EndNS)})
	})
	tr.on.Store(true)
	traced := closedLoop(1, half, plain.ops(), tracedOp(tr, "runner.Sweep", op))
	runner.Pool().SetOnJobSpan(nil)
	tr.linkByReq("runner.Sweep", "sched.queue")
	tr.linkByReq("runner.Sweep", "sched.job")

	rep := newLayerReport()
	poolLayer(rep, tr.all(), anyProc, o.info.GOMAXPROCS, traced.elapsed)
	rep.put("sched.cache_hit_ratio", 0, 0, "cache lookups (the cache is disabled)")
	rep.put("sched.cache_hits", 0, 0, "cache lookups (the cache is disabled)")
	rep.put("sched.cache_misses", 0, 0, "cache lookups (the cache is disabled)")

	// Replay the in-program calls of a sample of traced ops.
	var dfaMS, keyMS []float64
	eng := engineTimer{}
	for _, id := range sampleOps(traced, sweepReplayOps) {
		c := cells[order[id%int64(len(order))]]
		req := reqID(id)
		d, err := tr.replay("dfa.DataflowLimit", req, func() error {
			_, err := ruu.DataflowLimit(c.cfg.Machine)
			return err
		})
		if err != nil {
			return result{}, err
		}
		dfaMS = append(dfaMS, ms(d))
		at := c.cfg
		at.Entries = c.n
		for _, cfg := range []ruu.Config{{Engine: ruu.EngineSimple, Machine: c.cfg.Machine}, at} {
			for _, k := range livermore.Kernels() {
				u, err := k.Unit()
				if err != nil {
					return result{}, err
				}
				d, _ := tr.replay("sched.ProgramKey", req, func() error {
					ruu.ProgramKey(cfg, u, true)
					return nil
				})
				keyMS = append(keyMS, ms(d))
				if err := eng.run(tr, req, cfg, u, func() (*ruu.State, error) { return k.NewState() }); err != nil {
					return result{}, err
				}
			}
		}
	}
	rep.put("dfa.dataflow_limit_ms", median(dfaMS), int64(len(dfaMS)), "replayed DataflowLimit calls (median)")
	rep.put("sched.key_ms", median(keyMS), int64(len(keyMS)), "replayed ProgramKey calls (median)")
	eng.report(rep)
	rep.na("sweep-cold calls the library directly: no server, store, fabric, assembly or reference run",
		"exec.reference_ms", "asm.assemble_ms", "store.open_ms", "store.hit_ratio", "store.reads",
		"store.writes", "store.bytes_written", "store.errors", "server.handler_ms_p50",
		"http.client_overhead_ms", "server.shed_429", "fabric.worker_busy_share",
		"fabric.worker_imbalance", "fabric.routed", "fabric.retried")
	runtimeLayer(rep, plain, traced)
	res := finish(rep.metrics, guard(), plain, traced)
	set(res.Metrics, "error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	return res, writeLayerFiles(o.outDir, o.info, rep, tr.all())
}

// sweepReferences computes every cell's rows with the serial package-
// level ruu.Sweep, spread over workers goroutines.
func sweepReferences(cells []cell, workers int) ([][]ruu.SpeedupRow, error) {
	refs := make([][]ruu.SpeedupRow, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += workers {
				refs[i], errs[i] = ruu.Sweep(cells[i].cfg, []int{cells[i].n})
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for %v: %w", cells[i], err)
		}
	}
	return refs, nil
}

// checkRows reports whether a cell's rows equal the reference exactly.
func checkRows(got, want []ruu.SpeedupRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d rows, want %d", errWrongAnswer, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: row %+v, want %+v", errWrongAnswer, got[i], want[i])
		}
	}
	return nil
}
