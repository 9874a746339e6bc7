package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testKey(i int) Key {
	return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()

	k := testKey(1)
	payload := []byte(`{"cycles":12345,"issue_rate":1.25}`)
	if _, ok := s.Get(k); ok {
		t.Fatal("Get before Put reported a hit")
	}
	s.Put(k, payload)
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}

	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
	if st.Bytes != int64(len(payload)) || st.BytesWritten != int64(len(payload)) {
		t.Fatalf("stats bytes = %d/%d, want %d", st.Bytes, st.BytesWritten, len(payload))
	}
}

// TestReopenServesFromDisk is the crash-safety core: everything Put
// before a Close (or crash — Put is durable on return) must be served
// byte-identical by a fresh Store over the same directory.
func TestReopenServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	payloads := map[int][]byte{}
	for i := 0; i < 8; i++ {
		payloads[i] = []byte(fmt.Sprintf(`{"result":%d}`, i*i))
		s.Put(testKey(i), payloads[i])
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 8 {
		t.Fatalf("after reopen: %d entries, want 8", st.Entries)
	}
	for i, want := range payloads {
		got, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d missing after reopen", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d: got %q want %q", i, got, want)
		}
	}
}

func TestClosedStoreDegrades(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Put(testKey(1), []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("closed store served a hit")
	}
	s.Put(testKey(2), []byte("y")) // must not panic or write
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	k := testKey(1)
	s.Put(k, []byte("precious result bytes"))

	// Flip a payload byte on disk behind the store's back.
	path := s.core.objectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read object: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt object: %v", err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined, 0 entries", st)
	}
	// The corrupt bytes must be preserved in quarantine/ for forensics.
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(q), err)
	}
	// And a reopen must not resurrect the entry.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get(k); ok {
		t.Fatal("quarantined entry resurrected on reopen")
	}
}

func TestEvictionHonorsRecency(t *testing.T) {
	// Each payload is 100 bytes; cap at 250 so only 2 fit.
	payload := bytes.Repeat([]byte("x"), 100)
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 250})
	defer s.Close()

	s.Put(testKey(0), payload)
	s.Put(testKey(1), payload)
	if _, ok := s.Get(testKey(0)); !ok { // refresh 0 so 1 is now coldest
		t.Fatal("key 0 missing")
	}
	s.Put(testKey(2), payload) // evicts 1

	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := s.Get(testKey(2)); !ok {
		t.Fatal("freshly inserted entry was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestOversizedEntryStillServes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 10})
	defer s.Close()
	big := bytes.Repeat([]byte("y"), 1000)
	s.Put(testKey(1), big)
	if got, ok := s.Get(testKey(1)); !ok || !bytes.Equal(got, big) {
		t.Fatal("sole oversized entry not served")
	}
}

func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("z"), 100)
	s := mustOpen(t, dir, Options{MaxBytes: 250})
	s.Put(testKey(0), payload)
	s.Put(testKey(1), payload)
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing")
	}
	s.Close()

	// Reopen: the compacted log must have preserved that 1 is coldest.
	s2 := mustOpen(t, dir, Options{MaxBytes: 250})
	defer s2.Close()
	s2.Put(testKey(2), payload)
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("pre-reopen coldest entry survived post-reopen eviction")
	}
	if _, ok := s2.Get(testKey(0)); !ok {
		t.Fatal("pre-reopen hottest entry was evicted")
	}
}

// TestAdoptsUnindexedObject simulates a crash between the object
// rename and the index append: the file exists but no log line does.
// Open must adopt it.
func TestAdoptsUnindexedObject(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(testKey(1), []byte("indexed"))
	s.Close()

	// Plant a stray, well-formed object the index never saw.
	k := testKey(2)
	name := fmt.Sprintf("%x", k)
	shard := filepath.Join(dir, "objects", name[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, name), encodeEntry([]byte("stray")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, []byte("stray")) {
		t.Fatalf("stray object not adopted: ok=%v got=%q", ok, got)
	}
}

// TestDropsGhostIndexEntries simulates the reverse: a log line whose
// object file vanished. Open must forget it.
func TestDropsGhostIndexEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	k := testKey(1)
	s.Put(k, []byte("doomed"))
	path := s.core.objectPath(k)
	s.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("ghost entry resident: %+v", st)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("ghost entry served")
	}
}

// TestTmpSweptOnOpen: interrupted staging files must not accumulate.
func TestTmpSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "deadbeef.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp file survived Open: %v", err)
	}
}

// TestIndexCompaction: a long Get/Put history must compact to one line
// per resident entry on reopen.
func TestIndexCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		s.Put(testKey(i), []byte("v"))
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			s.Get(testKey(i))
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	s2.Close()
	data, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 4 {
		t.Fatalf("compacted index has %d lines, want 4:\n%s", n, data)
	}
}

func TestPutExistingRefreshesOnly(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := testKey(1)
	s.Put(k, []byte("once"))
	s.Put(k, []byte("once"))
	st := s.Stats()
	if st.Entries != 1 || st.BytesWritten != 4 {
		t.Fatalf("re-Put changed state: %+v", st)
	}
}

func TestDecodeEntryRejects(t *testing.T) {
	good := encodeEntry([]byte("payload"))
	cases := map[string][]byte{
		"truncated":  good[:len(good)-1],
		"bad magic":  append([]byte("NOTMAGIC"), good[8:]...),
		"too short":  good[:headerSize-1],
		"bad length": append(append([]byte{}, good[:headerSize]...), []byte("payloadX")...),
	}
	for name, data := range cases {
		if _, ok := decodeEntry(data); ok {
			t.Errorf("decodeEntry accepted %s entry", name)
		}
	}
	if got, ok := decodeEntry(good); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Error("decodeEntry rejected a valid entry")
	}
}

// writeV1Store lays out a store as the first format wrote it: RUUSTOR1
// entry files, an index, and no FORMAT marker.
func writeV1Store(t *testing.T, dir string, n int) {
	t.Helper()
	var index bytes.Buffer
	for i := 0; i < n; i++ {
		k := testKey(i)
		name := fmt.Sprintf("%x", k)
		payload := []byte(fmt.Sprintf(`{"result":%d}`, i))
		entry := encodeEntry(payload)
		copy(entry, "RUUSTOR1")
		shard := filepath.Join(dir, "objects", name[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, name), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&index, "P %s\n", name)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.log"), index.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatQuarantinedOnOpen: a store written under the previous
// job-key schema must not sit unreachable and silently cold. Open moves
// its objects to quarantine/, counts them, and marks the store current.
func TestOldFormatQuarantinedOnOpen(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	writeV1Store(t, dir, n)

	s := mustOpen(t, dir, Options{})
	st := s.Stats()
	if st.Superseded != n || st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want %d superseded, 0 entries, 0 quarantined", st, n)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != n {
		t.Fatalf("quarantine dir: %d entries, err %v; want %d", len(q), err, n)
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("old-format entry served")
	}
	// The store is usable and current from now on.
	s.Put(testKey(100), []byte("new"))
	s.Close()
	if data, err := os.ReadFile(filepath.Join(dir, formatFile)); err != nil || string(data) != magic+"\n" {
		t.Fatalf("format marker = %q, %v; want %q", data, err, magic)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Superseded != 0 || st.Entries != 1 {
		t.Fatalf("reopen stats = %+v, want 0 superseded, 1 entry", st)
	}
	if got, ok := s2.Get(testKey(100)); !ok || string(got) != "new" {
		t.Fatalf("entry written after the upgrade: ok=%v got=%q", ok, got)
	}
}

// TestForeignFormatMarkerQuarantined: a marker naming any other format
// is treated like a missing one.
func TestForeignFormatMarkerQuarantined(t *testing.T) {
	dir := t.TempDir()
	writeV1Store(t, dir, 2)
	if err := os.WriteFile(filepath.Join(dir, formatFile), []byte("RUUSTOR1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Superseded != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 superseded, 0 entries", st)
	}
}

// TestCurrentFormatOpensWithoutReadingObjects: the format check costs a
// current store nothing per entry. Every object's header is damaged
// behind the store's back; an Open that read objects would set them
// aside, but the format is taken from the marker alone, and the damage
// only surfaces (as quarantine) when an entry is read.
func TestCurrentFormatOpensWithoutReadingObjects(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), []byte("v"))
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = s.core.objectPath(testKey(i))
	}
	s.Close()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "XXXXXXXX")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Entries != n || st.Superseded != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want %d entries and nothing set aside on Open", st, n)
	}
	if _, ok := s2.Get(testKey(0)); ok {
		t.Fatal("damaged entry served")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want the damaged entry quarantined on read", st)
	}
}
