package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ruu"
)

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := cellOrder(7, 3), cellOrder(7, 3); !reflect.DeepEqual(a, b) {
		t.Fatal("cellOrder(7) differs between calls")
	}
	if reflect.DeepEqual(cellOrder(7, 3), cellOrder(8, 3)) {
		t.Fatal("cellOrder ignores the seed")
	}
	take := func(seed int64) []item {
		items, err := newItemStream(itemSpace(), seed, 2).take(200)
		if err != nil {
			t.Fatal(err)
		}
		return items
	}
	if !reflect.DeepEqual(take(7), take(7)) {
		t.Fatal("item stream for seed 7 differs between calls")
	}
	if reflect.DeepEqual(take(7), take(8)) {
		t.Fatal("item stream ignores the seed")
	}
}

func TestItemSpaceIsDistinct(t *testing.T) {
	space := itemSpace()
	seen := map[string]bool{}
	for _, it := range space {
		b, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("item %s appears twice", b)
		}
		seen[string(b)] = true
	}
	if len(space) != 27776 {
		t.Fatalf("item space holds %d items, README says 27776", len(space))
	}
}

func TestWrappedItemSetRejected(t *testing.T) {
	s := newItemStream(itemSpace()[:12], 1, 2)
	if _, err := s.take(batchItems); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if _, err := s.take(batchItems); !errors.Is(err, errWrapped) {
		t.Fatalf("second batch of a 12-item set: err = %v, want errWrapped", err)
	}

	// Through the batch client, a wrapped stream fails the op and marks
	// the run invalid.
	good := batchStream(t, batchItems, nil)
	bc := &batchClient{
		stream: newItemStream(itemSpace()[:12], 1, 2),
		post:   func(string, string, []byte) ([]byte, error) { return good, nil },
		pick:   rand.New(rand.NewSource(1)),
		byOp:   map[int64][]item{},
	}
	l := closedLoop(1, 50*time.Millisecond, 0, func(_ int, id int64) (int64, error) { return bc.do(id, false) })
	if a, f := l.tally(); f == 0 || f != a-1 {
		t.Fatalf("attempted %d, failed %d: want every op after the first to fail", a, f)
	}
	if !errors.Is(bc.wrapped, errWrapped) {
		t.Fatalf("wrapped = %v, want errWrapped", bc.wrapped)
	}
}

// batchStream renders a well-formed NDJSON answer of n verified items;
// tamper, when non-nil, edits line i's outcome first.
func batchStream(t *testing.T, n int, tamper func(i int, out *ruu.SimOutcome)) []byte {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		out := ruu.SimOutcome{Engine: "RUU", Instructions: 100, Cycles: 150, Verified: true, Stalls: map[string]int64{}}
		if tamper != nil {
			tamper(i, &out)
		}
		line, err := json.Marshal(map[string]any{"index": i, "outcome": out})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func TestWrongAnswerFailsOp(t *testing.T) {
	// A batch line that is not verified fails the op, and a run with a
	// failed op is not correct.
	unverified := batchStream(t, batchItems, func(i int, out *ruu.SimOutcome) { out.Verified = i != 3 })
	bc := &batchClient{
		stream: newItemStream(itemSpace(), 1, 2),
		post:   func(string, string, []byte) ([]byte, error) { return unverified, nil },
		byOp:   map[int64][]item{},
	}
	l := closedLoop(1, 20*time.Millisecond, 0, func(_ int, id int64) (int64, error) { return bc.do(id, false) })
	if a, f := l.tally(); a == 0 || f != a {
		t.Fatalf("attempted %d, failed %d: want every op failed", a, f)
	}
	if res := finish(endToEndMetrics(l, []time.Duration{time.Second}), nil, l); res.Correct || res.Failed != res.Attempted {
		t.Fatalf("result %+v: want correct=false and every op failed", res)
	}
	if _, err := checkBatch(batchStream(t, batchItems, nil), batchItems); err != nil {
		t.Fatalf("a well-formed stream fails the check: %v", err)
	}
	for name, stream := range map[string][]byte{
		"missing line": batchStream(t, batchItems-1, nil),
		"error line":   []byte(`{"index":0,"error":"boom"}` + "\n"),
		"trap":         batchStream(t, batchItems, func(i int, out *ruu.SimOutcome) { out.Trap = "x" }),
	} {
		if _, err := checkBatch(stream, batchItems); err == nil {
			t.Errorf("%s: checkBatch accepted it", name)
		}
	}

	// A serve-warm answer whose outcome differs from the fill's.
	want := []byte(`{"engine":"RUU","instructions":100}`)
	if err := checkSimulate([]byte(`{"outcome":{"engine":"RUU","instructions":100},"elapsed_ms":3}`), want); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	if err := checkSimulate([]byte(`{"outcome":{"engine":"RUU","instructions":101},"elapsed_ms":3}`), want); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("wrong answer: err = %v, want errWrongAnswer", err)
	}

	// A sweep cell whose rows differ from the serial reference.
	ref := []ruu.SpeedupRow{{Entries: 10, Speedup: 1.5, IssueRate: 0.6, Limit: 3}}
	bad := []ruu.SpeedupRow{{Entries: 10, Speedup: 1.5000001, IssueRate: 0.6, Limit: 3}}
	if err := checkRows(bad, ref); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("wrong rows: err = %v, want errWrongAnswer", err)
	}

	// A fabric answer that differs from the serial re-simulation.
	it := itemSpace()[0]
	u, err := it.unit()
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&ruu.Runner{}).RunProgram(context.Background(), it.config(), u, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := recheck([]answered{{it, out}}); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	out.Cycles++
	if err := recheck([]answered{{it, out}}); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("wrong answer: err = %v, want errWrongAnswer", err)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	printed := func(m map[string]metric) map[string]string {
		out := map[string]string{}
		for name, v := range m {
			out[name] = v.Unit
		}
		return out
	}
	l := loopStats{lat: []time.Duration{time.Millisecond}, good: []int64{0}, instr: 5, elapsed: time.Second}
	if got, want := printed(endToEndMetrics(l, []time.Duration{time.Second})), declared(bench.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics printed %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := printed(newLayerReport().metrics), declared(bench.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics printed %v, BENCHMARK.json declares %v", got, want)
	}
	var names, runners []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		runners = append(runners, name)
	}
	sort.Strings(names)
	sort.Strings(runners)
	if !reflect.DeepEqual(names, runners) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, runners)
	}
}

func TestBatchFabricTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fabric")
	}
	o := opts{workload: "batch-fabric", seed: 3, seconds: 0.4, trace: true, outDir: t.TempDir()}
	o.info = runInfo{Workload: o.workload, Seed: o.seed, GOMAXPROCS: 2, NProc: 2}
	res, err := runBatchFabric(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"sched.cache_hits", "fabric.retried", "server.shed_429"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if res.Metrics["fabric.routed"].Value == 0 || res.Metrics["store.writes"].Value == 0 {
		t.Errorf("no fabric traffic traced: %+v", res.Metrics)
	}
	for _, suffix := range []string{".trace.json", ".layers.json"} {
		data, err := os.ReadFile(o.outDir + "/batch-fabric-seed3" + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON", suffix)
		}
	}
}
