package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json
// lists the same names (perfbench_test.go checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload; a metric
// that does not apply to a workload reads 0 and is listed as not
// applicable in the layer summary.
var perLayer = []metricDef{
	{"dfa.dataflow_limit_ms", "ms"},
	{"sched.key_ms", "ms"},
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.queue_wait_ms_p90", "ms"},
	{"sched.job_run_ms_p50", "ms"},
	{"sched.worker_busy_share", "share"},
	{"sched.cache_hit_ratio", "ratio"},
	{"sched.cache_hits", "count"},
	{"sched.cache_misses", "count"},
	{"engine.ns_per_simcycle.simple", "ns"},
	{"engine.ns_per_simcycle.rstu", "ns"},
	{"engine.ns_per_simcycle.ruu", "ns"},
	{"engine.ns_per_simcycle.ruu_spec", "ns"},
	{"exec.reference_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.reads", "count"},
	{"store.writes", "count"},
	{"store.bytes_written", "bytes"},
	{"store.errors", "count"},
	{"server.handler_ms_p50", "ms"},
	{"http.client_overhead_ms", "ms"},
	{"server.shed_429", "count"},
	{"fabric.worker_busy_share", "share"},
	{"fabric.worker_imbalance", "ratio"},
	{"fabric.routed", "count"},
	{"fabric.retried", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.overhead", "ratio"},
	{"error_rate", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newMetrics returns defs' metrics, all zero, ready to be filled in.
func newMetrics(defs []metricDef) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

// set fills in one metric already present in m.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// loopStats is what a timed loop measured. It keeps 16 bytes per good
// op, so that the benchmark's own bookkeeping adds little to the heap it
// samples.
type loopStats struct {
	lat      []time.Duration // good ops' latencies
	good     []int64         // good ops' IDs, ascending
	failed   int
	firstErr error
	instr    int64 // simulated instructions in the good ops' checked answers
	elapsed  time.Duration
	peakHeap float64 // bytes, the median window peak
	alloc    uint64  // bytes allocated during the loop
	gcs      uint32  // GC cycles during the loop
}

// opFunc runs op id on behalf of one caller and returns the simulated
// instructions in its checked answer; an error marks the op failed.
type opFunc func(caller int, id int64) (instr int64, err error)

// closedLoop runs callers closed-loop callers for d: each starts its next
// op only when the previous one has returned. No op starts after d; ops
// in flight at d complete and count, and the measured time runs to the
// last completion. firstID numbers the ops so that two loops in one run
// (a traced run's two halves) never reuse an ID.
func closedLoop(callers int, d time.Duration, firstID int64, op opFunc) loopStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopHeap := sampleHeap()
	var next atomic.Int64
	next.Store(firstID)
	t0 := time.Now()
	per := make([]loopStats, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &per[c]
			for time.Since(t0) < d {
				id := next.Add(1) - 1
				start := time.Now()
				instr, err := op(c, id)
				if err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.lat = append(l.lat, time.Since(start))
				l.good = append(l.good, id)
				l.instr += instr
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(t0), peakHeap: stopHeap()}
	runtime.ReadMemStats(&ms1)
	st.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcs = ms1.NumGC - ms0.NumGC
	for _, p := range per {
		st.lat = append(st.lat, p.lat...)
		st.good = append(st.good, p.good...)
		st.failed += p.failed
		st.instr += p.instr
		if st.firstErr == nil {
			st.firstErr = p.firstErr
		}
	}
	sort.Slice(st.good, func(i, j int) bool { return st.good[i] < st.good[j] })
	return st
}

// Heap sampling: the live heap is sampled every heapSample, and
// peak_heap_mb is the median over the run's heapWindow windows of each
// window's largest sample. A single largest sample depends on where GC
// cycles happen to fall and did not repeat from run to run; the typical
// window peak does.
const (
	heapSample = 10 * time.Millisecond
	heapWindow = time.Second
)

// sampleHeap samples the live heap until the returned function is
// called, which stops the sampler and returns the median window peak in
// bytes.
func sampleHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	var peaks []float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(heapSample)
		defer t.Stop()
		peak, next := read(), time.Now().Add(heapWindow)
		for {
			select {
			case <-stop:
				peaks = append(peaks, peak)
				return
			case now := <-t.C:
				peak = max(peak, read())
				if now.After(next) {
					peaks = append(peaks, peak)
					peak, next = 0, next.Add(heapWindow)
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		return median(peaks)
	}
}

// ops is the number of ops the loop attempted; the next loop's first ID.
func (l loopStats) ops() int64 { return int64(len(l.lat) + l.failed) }

// tally counts a loop's ops.
func (l loopStats) tally() (attempted, failed int) { return int(l.ops()), l.failed }

// opsPerSec is completed good ops per second of the loop.
func (l loopStats) opsPerSec() float64 { return float64(len(l.lat)) / l.elapsed.Seconds() }

// endToEndMetrics renders a loop and the set-up times as the end-to-end
// metrics. Latency percentiles are over the good ops.
func endToEndMetrics(l loopStats, setups []time.Duration) map[string]metric {
	m := newMetrics(endToEnd)
	lat := make([]float64, len(l.lat))
	for i, d := range l.lat {
		lat[i] = ms(d)
	}
	set(m, "setup_s", median(seconds(setups)))
	set(m, "ops_per_s", l.opsPerSec())
	set(m, "latency_p50_ms", quantile(lat, 0.5))
	set(m, "latency_p90_ms", quantile(lat, 0.9))
	set(m, "sim_minstr_per_s", float64(l.instr)/l.elapsed.Seconds()/1e6)
	set(m, "peak_heap_mb", l.peakHeap/(1<<20))
	return m
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
