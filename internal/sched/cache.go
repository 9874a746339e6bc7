package sched

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// Key is a content address: the stable hash of everything that
// determines a job's result. Two jobs with equal keys are
// interchangeable — the simulator is deterministic, so (machine
// configuration, engine, program bytes, initial state) fixes the
// outcome bit for bit. The zero Key means "uncacheable".
type Key [sha256.Size]byte

// NoKey is the zero Key: a job submitted under it is never cached or
// deduplicated.
var NoKey Key

// IsZero reports whether k is the uncacheable sentinel.
func (k Key) IsZero() bool { return k == NoKey }

// Hasher builds a Key from labeled, length-prefixed fields, so that
// adjacent fields can never alias each other ("ab"+"c" vs "a"+"bc")
// and a field added in one writer position cannot collide with another.
type Hasher struct {
	h hash.Hash
	// chunk stages the encoded fields, so they reach the hash in a few
	// bulk writes rather than one call per word; n bytes are pending.
	chunk [512]byte
	n     int
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

func (h *Hasher) flush() {
	h.h.Write(h.chunk[:h.n])
	h.n = 0
}

func (h *Hasher) put64(v uint64) {
	if h.n+8 > len(h.chunk) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.chunk[h.n:], v)
	h.n += 8
}

func (h *Hasher) put16(v uint16) {
	if h.n+2 > len(h.chunk) {
		h.flush()
	}
	binary.LittleEndian.PutUint16(h.chunk[h.n:], v)
	h.n += 2
}

func (h *Hasher) putString(s string) {
	if h.n+len(s) > len(h.chunk) {
		h.flush()
		if len(s) > len(h.chunk) {
			h.h.Write([]byte(s))
			return
		}
	}
	h.n += copy(h.chunk[h.n:], s)
}

func (h *Hasher) label(l string, n int) {
	h.put64(uint64(len(l)))
	h.putString(l)
	h.put64(uint64(n))
}

// String hashes one labeled string field.
func (h *Hasher) String(label, s string) {
	h.label(label, len(s))
	h.putString(s)
}

// Int hashes one labeled integer field.
func (h *Hasher) Int(label string, v int64) {
	h.label(label, 8)
	h.put64(uint64(v))
}

// Bool hashes one labeled boolean field.
func (h *Hasher) Bool(label string, v bool) {
	var x int64
	if v {
		x = 1
	}
	h.Int(label, x)
}

// Bytes hashes one labeled byte-string field.
func (h *Hasher) Bytes(label string, b []byte) {
	h.label(label, len(b))
	h.flush()
	h.h.Write(b)
}

// Int64s hashes one labeled []int64 field as little-endian words (how
// whole memory images are hashed).
func (h *Hasher) Int64s(label string, vs []int64) {
	h.label(label, 8*len(vs))
	for _, v := range vs {
		h.put64(uint64(v))
	}
}

// Uint16s hashes one labeled sequence of 16-bit words, such as a
// program's encoded instruction parcels. It is a function rather than
// a method so it accepts any uint16-based element type.
func Uint16s[T ~uint16](h *Hasher, label string, vs []T) {
	h.label(label, 2*len(vs))
	for _, v := range vs {
		h.put16(uint16(v))
	}
}

// Pairs hashes one labeled sequence of records, each encoded by pair
// as two int64 words, such as a data image's (address, value) list.
// Like Uint16s it is a function so it accepts any record type.
func Pairs[T any](h *Hasher, label string, vs []T, pair func(T) (int64, int64)) {
	h.label(label, 16*len(vs))
	for _, v := range vs {
		a, b := pair(v)
		h.put64(uint64(a))
		h.put64(uint64(b))
	}
}

// Sum returns the accumulated Key.
func (h *Hasher) Sum() Key {
	h.flush()
	var k Key
	h.h.Sum(k[:0])
	return k
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	// Entries is the current entry count; Capacity the configured
	// maximum.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits, Misses and Evictions count Get hits, Get misses, and
	// entries displaced by Put since construction.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns Hits / (Hits + Misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Backing is an optional persistent layer under a Cache: a memory miss
// falls through to Load, and every Put is written through via Store.
// Implementations translate between the cache's dynamic values and
// their durable encoding (internal/store holds raw bytes); both
// methods must be safe for concurrent use and are expected to absorb
// I/O errors (a failed Load is a miss, a failed Store is a no-op) —
// the persistent layer degrades the service to re-simulation, it never
// fails a job.
type Backing interface {
	Load(k Key) (any, bool)
	Store(k Key, v any)
}

// Cache is a content-addressed result cache with LRU eviction. It is
// safe for concurrent use. Values are stored as given; the simulator's
// result types are immutable-by-convention (plain data, no shared
// mutable state), which is what makes returning a cached value
// equivalent to re-running the job.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Key]*list.Element
	lru       *list.List // front = most recent
	hits      int64
	misses    int64
	evictions int64

	// backing is set once before the cache is shared (WithBacking) and
	// only read afterwards; it is deliberately accessed outside mu so
	// disk I/O never blocks concurrent memory lookups.
	backing Backing
}

type cacheEntry struct {
	key   Key
	value any
}

// NewCache returns a cache holding at most capacity entries
// (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
	}
}

// WithBacking layers a persistent store under the cache and returns
// the cache. Call it once, before the cache is shared; the memory
// layer's hit/miss/eviction stats keep describing memory alone (the
// backing keeps its own counters).
func (c *Cache) WithBacking(b Backing) *Cache {
	c.backing = b
	return c
}

// Get returns the value stored under k, marking it most recently used.
// A memory miss falls through to the backing store (when configured)
// and a backing hit is promoted into memory.
func (c *Cache) Get(k Key) (any, bool) {
	if k.IsZero() {
		return nil, false
	}
	if v, ok := c.getMem(k); ok {
		return v, true
	}
	if c.backing == nil {
		return nil, false
	}
	v, ok := c.backing.Load(k)
	if !ok {
		return nil, false
	}
	// Promote without re-storing: the backing already holds it.
	c.putMem(k, v)
	return v, true
}

// getMem is the memory layer of Get.
func (c *Cache) getMem(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry).value, true
}

// Put stores v under k, evicting the least recently used entry when
// the cache is full, and writes through to the backing store when one
// is configured. A zero key is ignored.
func (c *Cache) Put(k Key, v any) {
	if k.IsZero() {
		return
	}
	c.putMem(k, v)
	if c.backing != nil {
		c.backing.Store(k, v)
	}
}

// putMem is the memory layer of Put (eviction never touches the
// backing: a memory eviction only demotes the entry to disk residency).
func (c *Cache) putMem(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		e.Value.(*cacheEntry).value = v
		c.lru.MoveToFront(e)
		return
	}
	for len(c.entries) >= c.capacity {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	// Per-job bookkeeping, not per-cycle: one entry per completed
	// simulation, each of which ran millions of cycles. //ruulint:ok hotpathalloc
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, value: v})
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
