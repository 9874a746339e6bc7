package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per op plus child spans at every
// layer boundary the benchmark reaches from outside: its own calls into
// the library, a handler wrapper around each server, and the job spans
// the servers expose on GET /v1/trace. Calls that happen inside the
// program (Assemble, ProgramKey, DataflowLimit, an engine's Run,
// Reference) are timed by calling the same public function again on the
// op's own inputs after the traced loop; those spans are marked as
// replays and lie outside their op's interval.

// span is one recorded interval on the benchmark's clock.
type span struct {
	id, parent int
	layer      string // the boundary, named like the per-layer metrics
	proc       string // the Chrome trace process it is drawn in
	track      int
	req        string // X-Request-ID shared by an op's spans
	start, end time.Duration
	replay     bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// not switched on, records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the benchmark clock.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// wall converts a wall-clock nanosecond stamp to the benchmark clock.
func (t *tracer) wall(ns int64) time.Duration { return time.Duration(ns - t.t0.UnixNano()) }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// add records s if the tracer is on and returns its ID (0 otherwise).
func (t *tracer) add(s span) int {
	if !t.recording() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// all returns the recorded spans; call it once recording has stopped.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// replay times fn as a replayed call of layer for op req and records it.
func (t *tracer) replay(layer, req string, fn func() error) (time.Duration, error) {
	start := t.now()
	err := fn()
	end := t.now()
	t.add(span{layer: layer, proc: "replay", req: req, start: start, end: end, replay: true})
	return end - start, err
}

// linkByReq makes each span of childLayer a child of the span of
// parentLayer that carries the same request ID.
func (t *tracer) linkByReq(parentLayer, childLayer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[string]int{}
	for _, s := range t.spans {
		if s.layer == parentLayer {
			parents[s.req] = s.id
		}
	}
	for i, s := range t.spans {
		if s.layer == childLayer && s.parent == 0 {
			t.spans[i].parent = parents[s.req]
		}
	}
}

// linkByTime makes each span of childLayer a child of the span of
// parentLayer whose interval contains it. It joins spans whose request
// ID the program does not propagate (the fabric's worker calls).
func (t *tracer) linkByTime(parentLayer, childLayer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []span
	for _, s := range t.spans {
		if s.layer == parentLayer {
			parents = append(parents, s)
		}
	}
	for i, s := range t.spans {
		if s.layer != childLayer || s.parent != 0 {
			continue
		}
		for _, p := range parents {
			if p.start <= s.start && s.end <= p.end {
				t.spans[i].parent = p.id
				break
			}
		}
	}
}

// serverJob is one executed pool job as a server's GET /v1/trace shows
// it, on that server's own relative clock.
type serverJob struct {
	req                 string
	worker              int
	enqueue, start, end time.Duration
}

// fetchServerJobs reads a server's retained job spans.
func fetchServerJobs(client *http.Client, base string) ([]serverJob, error) {
	resp, err := client.Get(base + "/v1/trace")
	if err != nil {
		return nil, fmt.Errorf("GET /v1/trace: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			TID  int    `json:"tid"`
			Args struct {
				RequestID   *string `json:"request_id"`
				QueueWaitUS int64   `json:"queue_wait_us"`
				State       string  `json:"state"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /v1/trace: %w", err)
	}
	var jobs []serverJob
	for _, e := range doc.TraceEvents {
		// The run slice of each job; its queued slice repeats the wait.
		if e.Ph != "X" || e.Args.RequestID == nil || e.Args.State == "queued" {
			continue
		}
		us := time.Microsecond
		start := time.Duration(e.TS) * us
		jobs = append(jobs, serverJob{
			req:     *e.Args.RequestID,
			worker:  e.TID,
			enqueue: start - time.Duration(e.Args.QueueWaitUS)*us,
			start:   start,
			end:     start + time.Duration(e.Dur)*us,
		})
	}
	return jobs, nil
}

// addServerJobs records the jobs of one server that belong to a traced
// request, as a "sched.queue" and a "sched.job" span under the handler
// span (layer parentLayer, process proc) with the same request ID. A
// server's trace is on its own relative clock; it is placed on the
// benchmark clock at the earliest offset that puts every joined job
// inside its handler span.
func (t *tracer) addServerJobs(proc, parentLayer string, jobs []serverJob) {
	handlers := map[string]span{}
	for _, s := range t.all() {
		if s.layer == parentLayer && s.proc == proc {
			handlers[s.req] = s
		}
	}
	var joined []serverJob
	var offset time.Duration
	for _, j := range jobs {
		h, ok := handlers[j.req]
		if !ok {
			continue
		}
		if d := h.start - j.enqueue; len(joined) == 0 || d > offset {
			offset = d
		}
		joined = append(joined, j)
	}
	for _, j := range joined {
		h := handlers[j.req]
		sched := proc + " scheduler"
		t.add(span{parent: h.id, layer: "sched.queue", proc: sched, track: j.worker, req: j.req,
			start: j.enqueue + offset, end: j.start + offset})
		t.add(span{parent: h.id, layer: "sched.job", proc: sched, track: j.worker, req: j.req,
			start: j.start + offset, end: j.end + offset})
	}
}

// layerSummary aggregates one layer's spans. Self time is each span's
// duration minus the part of it its child spans cover.
type layerSummary struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	Replay  bool    `json:"replay"`
}

// summarize aggregates the recorded spans per layer and process.
func summarize(spans []span) map[string]*layerSummary {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*layerSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		key := s.layer + " (" + s.proc + ")"
		l := out[key]
		if l == nil {
			l = &layerSummary{Replay: s.replay}
			out[key] = l
		}
		l.Spans++
		l.TotalMS += ms(s.dur())
		l.SelfMS += ms(s.dur() - covered(s, children[s.id]))
		durs[key] = append(durs[key], ms(s.dur()))
	}
	for name, l := range out {
		l.P50MS = median(durs[name])
	}
	return out
}

// covered is the length of the union of kids' intervals within s.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeChromeTrace writes spans as a Chrome trace-event document, the
// format internal/obs emits: one process per component, one track per
// caller or worker, and each span as a complete ("X") event carrying
// its request ID.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts,omitempty"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	pids := map[string]int{}
	tids := map[[2]int]bool{}
	for _, s := range spans {
		pid, ok := pids[s.proc]
		if !ok {
			pid = len(pids) + 1
			pids[s.proc] = pid
			events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": s.proc}})
		}
		if !tids[[2]int{pid, s.track}] {
			tids[[2]int{pid, s.track}] = true
			events = append(events, event{Name: "thread_name", Ph: "M", PID: pid, TID: s.track,
				Args: map[string]any{"name": fmt.Sprintf("%s %d", s.proc, s.track)}})
		}
		events = append(events, event{
			Name: s.layer, Ph: "X", PID: pid, TID: s.track,
			TS:   float64(s.start) / 1e3,
			Dur:  max(float64(s.dur())/1e3, 0.001),
			Args: map[string]any{"request_id": s.req, "replay": s.replay},
		})
	}
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(b)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// baseCount is the count a per-layer value rests on.
type baseCount struct {
	N  int64  `json:"n"`
	Of string `json:"of"`
}

// layerReport collects a traced run's per-layer metrics with their base
// counts, and says why any metric reads 0.
type layerReport struct {
	metrics       map[string]metric
	base          map[string]baseCount
	notApplicable map[string]string
}

func newLayerReport() *layerReport {
	return &layerReport{
		metrics:       newMetrics(perLayer),
		base:          map[string]baseCount{},
		notApplicable: map[string]string{},
	}
}

// put sets a metric and the count it rests on.
func (r *layerReport) put(name string, v float64, n int64, of string) {
	set(r.metrics, name, v)
	r.base[name] = baseCount{n, of}
}

// na marks metrics that do not apply to the workload.
func (r *layerReport) na(why string, names ...string) {
	for _, n := range names {
		r.notApplicable[n] = why
	}
}

// notMeasured lists the layer figures ROADMAP asks about that a
// benchmark timing public calls from outside cannot isolate.
var notMeasured = []struct {
	Metric string `json:"metric"`
	Why    string `json:"why"`
}{
	{"server.decode_ms, server.encode_ms", "request decode and response/NDJSON encode run inside the handler; server.handler_ms_p50 includes them, separating them needs spans inside the program"},
	{"store.read_ms, store.write_ms", "store reads and fsync'd writes happen inside the scheduler cache's backing layer; only their counts (Store.Stats deltas) are visible from outside"},
	{"engine phase split (BeginCycle, Dispatch, TryIssue)", "needs pprof labels or spans inside the engines"},
	{"worker span join by request ID", "internal/fabric does not forward X-Request-ID, so worker handler spans are joined to their batch by time containment"},
}

// writeLayerFiles writes the traced run's Chrome trace and its per-layer
// summary into dir, named after the workload and seed.
func writeLayerFiles(dir string, info runInfo, rep *layerReport, spans []span) error {
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", info.Workload, info.Seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type entry struct {
		metric
		Base          *baseCount `json:"base,omitempty"`
		NotApplicable string     `json:"not_applicable,omitempty"`
	}
	metrics := map[string]entry{}
	for _, d := range perLayer {
		e := entry{metric: rep.metrics[d.name], NotApplicable: rep.notApplicable[d.name]}
		if b, ok := rep.base[d.name]; ok {
			e.Base = &b
		}
		metrics[d.name] = e
	}
	doc, err := json.MarshalIndent(map[string]any{
		"run":                       info,
		"metrics":                   metrics,
		"layers":                    summarize(spans),
		"not_measured_from_outside": notMeasured,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".layers.json", append(doc, '\n'), 0o644)
}
