package fabric

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ruu/internal/obs"
)

func jobKey(i int) Key {
	return sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
}

func TestRingRoutesDeterministically(t *testing.T) {
	r := NewRing(0)
	r.Add("a")
	r.Add("b")
	r.Add("c")
	for i := 0; i < 100; i++ {
		first, ok := r.Lookup(jobKey(i))
		if !ok {
			t.Fatal("lookup on populated ring failed")
		}
		again, _ := r.Lookup(jobKey(i))
		if first != again {
			t.Fatalf("key %d routed to %s then %s", i, first, again)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	r := NewRing(0)
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		n, _ := r.Lookup(jobKey(i))
		counts[n]++
	}
	for _, n := range nodes {
		// With 64 vnodes each, shares should be within 2x of even.
		if counts[n] < keys/6 || counts[n] > keys/2+keys/6 {
			t.Fatalf("node %s owns %d of %d keys: %v", n, counts[n], keys, counts)
		}
	}
}

// TestRingStableUnderMembershipChange is the consistent-hashing
// property: removing one of three nodes must move only the keys that
// node owned, never reshuffle keys between the survivors.
func TestRingStableUnderMembershipChange(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	before := map[int]string{}
	for i := 0; i < 1000; i++ {
		before[i], _ = r.Lookup(jobKey(i))
	}
	r.Remove("b")
	moved := 0
	for i := 0; i < 1000; i++ {
		after, _ := r.Lookup(jobKey(i))
		if before[i] == "b" {
			if after == "b" {
				t.Fatalf("key %d still routes to removed node", i)
			}
			continue
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving nodes", moved)
	}
	// Re-adding restores the original ownership exactly.
	r.Add("b")
	for i := 0; i < 1000; i++ {
		if after, _ := r.Lookup(jobKey(i)); after != before[i] {
			t.Fatalf("key %d owned by %s after re-add, was %s", i, after, before[i])
		}
	}
}

func TestLookupNDistinct(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	for i := 0; i < 50; i++ {
		got := r.LookupN(jobKey(i), 3)
		if len(got) != 3 {
			t.Fatalf("LookupN returned %d nodes, want 3", len(got))
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("LookupN repeated node %s: %v", n, got)
			}
			seen[n] = true
		}
	}
	if got := r.LookupN(jobKey(0), 10); len(got) != 3 {
		t.Fatalf("LookupN(10) on 3-node ring returned %d", len(got))
	}
	if got := NewRing(0).LookupN(jobKey(0), 3); got != nil {
		t.Fatalf("LookupN on empty ring returned %v", got)
	}
}

func fastCfg(workers ...string) Config {
	return Config{
		Workers:     workers,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
	}
}

// TestCoordinatorForwardsRequestID: a worker logs and traces a
// forwarded item under the ID of the batch that carried it, and a
// context without an ID sends none (the worker then assigns its own).
func TestCoordinatorForwardsRequestID(t *testing.T) {
	seen := make(chan string, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate" { // not the health prober
			seen <- r.Header.Get("X-Request-ID")
		}
	}))
	defer srv.Close()

	c, err := New(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := obs.WithRequestID(context.Background(), "batch-7")
	if _, err := c.Do(ctx, jobKey(1), "/v1/simulate", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "batch-7" {
		t.Errorf("worker saw X-Request-ID %q, want %q", got, "batch-7")
	}
	if _, err := c.Do(context.Background(), jobKey(2), "/v1/simulate", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "" {
		t.Errorf("worker saw X-Request-ID %q for a context without one", got)
	}
}

func TestCoordinatorForwards(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "answer for %s", r.URL.Path)
	}))
	defer srv.Close()

	c, err := New(fastCfg(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Do(context.Background(), jobKey(1), "/v1/simulate", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "answer for /v1/simulate" {
		t.Fatalf("got %d %q", res.Status, res.Body)
	}
	if st := c.Stats(); st.Routed != 1 || st.Retried != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoordinatorRetriesOn5xx: a worker answering 500 must be retried
// on a different worker, and the retry counted.
func TestCoordinatorRetriesOn5xx(t *testing.T) {
	var sickHits atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sickHits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer sick.Close()
	well := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer well.Close()

	c, err := New(fastCfg(sick.URL, well.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Run enough keys that some must land on the sick worker first.
	healed := 0
	for i := 0; i < 20; i++ {
		res, err := c.Do(context.Background(), jobKey(i), "/x", nil)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if string(res.Body) != "ok" {
			t.Fatalf("key %d: answered by sick worker: %d %q", i, res.Status, res.Body)
		}
		if res.Worker == well.URL && sickHits.Load() > 0 {
			healed++
		}
	}
	st := c.Stats()
	if st.Routed != 20 {
		t.Fatalf("routed = %d, want 20", st.Routed)
	}
	if sickHits.Load() == 0 || st.Retried == 0 {
		t.Fatalf("sick worker never tried (hits=%d retried=%d) — ring degenerate?", sickHits.Load(), st.Retried)
	}
	// 5xx must NOT eject the worker from the ring.
	if !c.ring.Has(sick.URL) {
		t.Fatal("5xx ejected worker from ring")
	}
}

// TestCoordinatorEjectsOnConnectFailure: a dead worker leaves the ring
// after the first connect failure, so later keys route straight to the
// survivor.
func TestCoordinatorEjectsOnConnectFailure(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // now refuses connections
	well := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer well.Close()

	c, err := New(fastCfg(dead.URL, well.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		res, err := c.Do(context.Background(), jobKey(i), "/x", nil)
		if err != nil || string(res.Body) != "ok" {
			t.Fatalf("key %d: res=%v err=%v", i, res, err)
		}
	}
	if c.ring.Has(dead.URL) {
		t.Fatal("dead worker still in ring")
	}
	if h := c.Workers(); h[dead.URL] || !h[well.URL] {
		t.Fatalf("health map wrong: %v", h)
	}
}

// TestCoordinatorAllWorkersDown: every attempt fails -> error, not a
// hang.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	c, err := New(fastCfg(dead.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(context.Background(), jobKey(1), "/x", nil); err == nil {
		t.Fatal("Do against dead fleet succeeded")
	}
	// The ring is now empty; the fallback path must still return an
	// error promptly rather than panic.
	if _, err := c.Do(context.Background(), jobKey(2), "/x", nil); err == nil {
		t.Fatal("Do on empty ring succeeded")
	}
}

func TestCoordinatorHonorsContext(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stall.Close()
	c, err := New(fastCfg(stall.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, jobKey(1), "/x", nil); err == nil {
		t.Fatal("Do outlived its context")
	}
}

// TestProberReadmitsRecoveredWorker: a worker ejected by connect
// failure rejoins the ring once the health prober sees it answer.
func TestProberReadmitsRecoveredWorker(t *testing.T) {
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer flaky.Close()

	cfg := fastCfg(flaky.URL)
	cfg.HealthInterval = 5 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	down.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for c.ring.Has(flaky.URL) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.ring.Has(flaky.URL) {
		t.Fatal("prober never ejected the sick worker")
	}
	down.Store(false)
	for !c.ring.Has(flaky.URL) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !c.ring.Has(flaky.URL) {
		t.Fatal("prober never re-admitted the recovered worker")
	}
}
