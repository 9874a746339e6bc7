package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ruu"
)

// Helpers shared by the three workloads: result assembly, traced ops,
// and the per-layer figures more than one workload reports.

// finish assembles a result from the loops' op tallies and the
// validity guards; the run is correct only if no op failed and no guard
// tripped. The first failure of each kind goes to standard error.
func finish(m map[string]metric, guards []error, loops ...loopStats) result {
	res := result{Metrics: m}
	for _, l := range loops {
		a, f := l.tally()
		res.Attempted += a
		res.Failed += f
		if err := l.firstErr; err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
	}
	for _, err := range guards {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: %v\n", err)
	}
	res.Correct = res.Failed == 0 && len(guards) == 0
	return res
}

// reqID is the X-Request-ID every span of op id carries.
func reqID(id int64) string { return fmt.Sprintf("op-%d", id) }

// tracedOp wraps op so that each call records one span of layer on the
// client track of its caller.
func tracedOp(tr *tracer, layer string, op opFunc) opFunc {
	return func(c int, id int64) (int64, error) {
		start := tr.now()
		instr, err := op(c, id)
		tr.add(span{layer: layer, proc: "client", track: c, req: reqID(id), start: start, end: tr.now()})
		return instr, err
	}
}

// sampleOps picks the IDs of up to n good ops spread evenly over l.
func sampleOps(l loopStats, n int) []int64 {
	if len(l.good) <= n {
		return l.good
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = l.good[i*len(l.good)/n]
	}
	return out
}

// poolLayer reports the scheduler figures from the "sched.queue" and
// "sched.job" spans of the processes inProc accepts: queue wait and run
// time per job, and the share of workers x elapsed the jobs kept busy.
func poolLayer(rep *layerReport, spans []span, inProc func(string) bool, workers int, elapsed time.Duration) {
	var waits, runs []float64
	var busy time.Duration
	for _, s := range spans {
		if !inProc(s.proc) {
			continue
		}
		switch s.layer {
		case "sched.queue":
			waits = append(waits, ms(s.dur()))
		case "sched.job":
			runs = append(runs, ms(s.dur()))
			busy += s.dur()
		}
	}
	n := int64(len(runs))
	if n == 0 {
		rep.na("no pool job ran while traced", "sched.queue_wait_ms_p50", "sched.queue_wait_ms_p90",
			"sched.job_run_ms_p50", "sched.worker_busy_share")
	}
	rep.put("sched.queue_wait_ms_p50", quantile(waits, 0.5), n, "executed pool jobs")
	rep.put("sched.queue_wait_ms_p90", quantile(waits, 0.9), n, "executed pool jobs")
	rep.put("sched.job_run_ms_p50", quantile(runs, 0.5), n, "executed pool jobs")
	rep.put("sched.worker_busy_share", ratio(float64(busy), float64(workers)*float64(elapsed)), n, "executed pool jobs")
}

// anyProc accepts every process.
func anyProc(string) bool { return true }

// engineTimer times replayed engine runs per engine class.
type engineTimer struct {
	ns, cycles map[string]int64
	runs       map[string]int64
}

// run replays one simulation (NewMachine + Run) of u under cfg from the
// state newState builds.
func (e *engineTimer) run(tr *tracer, req string, cfg ruu.Config, u *ruu.Unit, newState func() (*ruu.State, error)) error {
	if e.ns == nil {
		e.ns, e.cycles, e.runs = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	st, err := newState()
	if err != nil {
		return err
	}
	var cycles int64
	d, err := tr.replay("engine.Run", req, func() error {
		m, err := ruu.NewMachine(cfg)
		if err != nil {
			return err
		}
		res, err := m.Run(u.Prog, st)
		cycles = res.Stats.Cycles
		return err
	})
	if err != nil {
		return fmt.Errorf("replay %s run: %w", cfg.Engine, err)
	}
	class := engineClass(cfg)
	e.ns[class] += int64(d)
	e.cycles[class] += cycles
	e.runs[class]++
	return nil
}

// report puts engine.ns_per_simcycle.* for each class that ran.
func (e *engineTimer) report(rep *layerReport) {
	for _, class := range []string{"simple", "rstu", "ruu", "ruu_spec"} {
		name := "engine.ns_per_simcycle." + class
		if e.runs[class] == 0 {
			rep.na("no "+class+" simulations in this workload", name)
			continue
		}
		rep.put(name, ratio(float64(e.ns[class]), float64(e.cycles[class])), e.runs[class],
			fmt.Sprintf("replayed runs (%d simulated cycles)", e.cycles[class]))
	}
}

// runtimeLayer reports the Go runtime's allocation and GC figures from
// the untraced half, and the cost of tracing as the traced half's
// throughput over the untraced half's.
func runtimeLayer(rep *layerReport, plain, traced loopStats) {
	ops := plain.ops()
	rep.put("runtime.alloc_mb_per_op", ratio(float64(plain.alloc)/(1<<20), float64(ops)), ops, "untraced ops")
	rep.put("runtime.gc_cycles_per_op", ratio(float64(plain.gcs), float64(ops)), ops, "untraced ops")
	rep.put("trace.overhead", ratio(traced.opsPerSec(), plain.opsPerSec()), traced.ops(),
		"traced ops (traced over untraced ops_per_s)")
}

// hasPrefix builds a process filter.
func hasPrefix(prefix string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, prefix) }
}

// httpLayer reports the handler time of the server spans of
// handlerLayer, and the client's overhead: each client span's round trip
// minus the handler span under it.
func httpLayer(rep *layerReport, spans []span, clientLayer, handlerLayer string) {
	client := map[int]span{}
	for _, s := range spans {
		if s.layer == clientLayer {
			client[s.id] = s
		}
	}
	var handler, overhead []float64
	for _, s := range spans {
		if s.layer != handlerLayer {
			continue
		}
		handler = append(handler, ms(s.dur()))
		if c, ok := client[s.parent]; ok {
			overhead = append(overhead, ms(c.dur()-s.dur()))
		}
	}
	rep.put("server.handler_ms_p50", median(handler), int64(len(handler)), "handled requests while traced")
	rep.put("http.client_overhead_ms", median(overhead), int64(len(overhead)), "requests joined to their handler span (median)")
}
