package ruu

import (
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/livermore"
	"ruu/internal/memsys"
	"ruu/internal/sched"
)

// Job keys address results in the cache, the persistent store and the
// fabric's hash ring, so their bytes are a compatibility surface: a
// silent change strands every stored result. These tests pin the bytes
// (a change must come with a keySchema and store-format bump) and prove
// the key still separates everything that can change an outcome.

func mustAssemble(t testing.TB, src string) *Unit {
	t.Helper()
	u, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return u
}

// TestJobKeyGolden pins the hex of a sweep kernel job and of one
// submitted unit, verified and unverified. If this fails, the key
// layout changed: bump keySchema and the store format (internal/store
// magic), then update the hex here.
func TestJobKeyGolden(t *testing.T) {
	u := mustAssemble(t, serviceTestSrc)
	cfg := Config{Engine: EngineRUU, Entries: 12, Bypass: BypassFull}
	for _, c := range []struct {
		name string
		key  sched.Key
		want string
	}{
		{"kernel LLL1 rstu entries=6", kernelKey(Config{Engine: EngineRSTU, Entries: 6}, livermore.ByName("LLL1")),
			"c95e6420f825ed435c0c3c7a67cf2f68484a0daca9375146925c405375fdfe04"},
		{"asm verified", ProgramKey(cfg, u, true),
			"e9eb105df1698f058241001421aa28d4869046e82bf41c19f2e539865feecf6a"},
		{"asm unverified", ProgramKey(cfg, u, false),
			"068d88fd20172d0d71e5c566b91f8dc35da370bb3771155142715dcc9915c70d"},
	} {
		if got := hex.EncodeToString(c.key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// keyExcludedFields names the Config fields (dotted paths) the job key
// deliberately leaves out. Both are observers: they watch a run without
// changing it, and jobKey returns NoKey whenever one is set.
var keyExcludedFields = map[string]bool{
	"Machine.Trace": true,
	"Machine.Probe": true,
}

// configLeaves lists every leaf field of Config by dotted path (array
// elements indexed), descending into nested structs, with its index
// path for reflect.Value.FieldByIndex-style navigation.
func configLeaves(t reflect.Type, prefix string, index []int, out *[]configLeaf) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		idx := append(slices.Clip(index), i)
		switch f.Type.Kind() {
		case reflect.Struct:
			configLeaves(f.Type, path+".", idx, out)
		case reflect.Array:
			for e := 0; e < f.Type.Len(); e++ {
				*out = append(*out, configLeaf{fmt.Sprintf("%s[%d]", path, e), idx, e})
			}
		default:
			*out = append(*out, configLeaf{path, idx, -1})
		}
	}
}

type configLeaf struct {
	path  string
	index []int
	elem  int // array element, or -1
}

// mutate changes the leaf's value in *cfg, reporting false for kinds it
// cannot change.
func (l configLeaf) mutate(cfg *Config) bool {
	v := reflect.ValueOf(cfg).Elem().FieldByIndex(l.index)
	if l.elem >= 0 {
		v = v.Index(l.elem)
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		return false
	}
	return true
}

// TestJobKeyCoversEveryConfigField enumerates every field of Config and
// machine.Config and checks that changing it changes the key, unless
// keyExcludedFields names it. A field added to either struct fails here
// until hashConfig hashes it or the exclusion list names it.
func TestJobKeyCoversEveryConfigField(t *testing.T) {
	input := unitDigest(mustAssemble(t, serviceTestSrc))
	base := Config{Engine: EngineRUU, Entries: 12}
	k0 := jobKey(base, input)
	var leaves []configLeaf
	configLeaves(reflect.TypeOf(Config{}), "", nil, &leaves)
	seen := map[string]bool{}
	for _, l := range leaves {
		seen[l.path] = true
		if keyExcludedFields[l.path] {
			continue
		}
		cfg := base
		if !l.mutate(&cfg) {
			t.Errorf("%s: field kind has no test mutation; hash it in hashConfig (and teach mutate its kind) or exclude it", l.path)
			continue
		}
		if jobKey(cfg, input) == k0 {
			t.Errorf("%s: changing the field does not change the job key; hash it in hashConfig or name it in keyExcludedFields", l.path)
		}
	}
	for path := range keyExcludedFields {
		if !seen[path] {
			t.Errorf("keyExcludedFields names %s, which Config does not have", path)
		}
	}
	traced, probed := base, base
	traced.Machine.Trace = io.Discard
	probed.Machine.Probe = NewProbeRecorder()
	if !jobKey(traced, input).IsZero() || !jobKey(probed, input).IsZero() {
		t.Error("an observed config produced a cacheable key")
	}
}

func TestKernelKeySeparatesInitImages(t *testing.T) {
	cfg := Config{Engine: EngineRSTU, Entries: 6}
	k := livermore.ByName("LLL1")
	clone := func(init func(m *memsys.Memory, u *asm.Unit)) *livermore.Kernel {
		return &livermore.Kernel{Name: k.Name, N: k.N, Source: k.Source, Init: init, Check: k.Check}
	}
	k0 := kernelKey(cfg, k)
	if k := kernelKey(cfg, clone(k.Init)); k != k0 {
		t.Error("the same kernel built twice produced different keys")
	}
	poked := clone(func(m *memsys.Memory, u *asm.Unit) {
		k.Init(m, u)
		m.Poke(int64(m.Size()-1), 1)
	})
	if kernelKey(cfg, poked) == k0 {
		t.Error("a different Init image produced the same key")
	}
	if kernelKey(cfg, livermore.ByName("LLL2")) == k0 {
		t.Error("different kernels produced the same key")
	}
}

// TestJobKeyAllocations guards the point of the two-level key: neither
// a submitted unit's key nor a warm kernel key may build a memory image
// (256 KiB), so both stay under 4 KiB per call.
func TestJobKeyAllocations(t *testing.T) {
	const maxBytes = 4 << 10
	u := mustAssemble(t, serviceTestSrc)
	cfg := Config{Engine: EngineRUU, Entries: 12}
	k := livermore.ByName("LLL1")
	kernelKey(cfg, k) // warm the kernel's digest
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"ProgramKey", func() { ProgramKey(cfg, u, true) }},
		{"kernelKey", func() { kernelKey(cfg, k) }},
	} {
		allocs := testing.AllocsPerRun(50, c.f)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
		if bytes := res.AllocedBytesPerOp(); bytes > maxBytes {
			t.Errorf("%s allocates %d B per call (%v allocs), want <= %d", c.name, bytes, allocs, maxBytes)
		}
		t.Logf("%s: %v allocs, %d B per call", c.name, allocs, res.AllocedBytesPerOp())
	}
}

func TestDataflowLimitMemo(t *testing.T) {
	timings := []MachineConfig{{}, {FwdLatency: 4}, {TakenPenalty: 9}}
	want := make([]int64, len(timings))
	for i, mcfg := range timings {
		got, err := DataflowLimit(mcfg)
		if err != nil {
			t.Fatalf("DataflowLimit(%+v): %v", mcfg, err)
		}
		fresh, err := dataflowLimit(boundConfig(mcfg))
		if err != nil {
			t.Fatalf("dataflowLimit: %v", err)
		}
		if got != fresh {
			t.Errorf("memoised DataflowLimit(%+v) = %d, fresh computation %d", mcfg, got, fresh)
		}
		want[i] = got
	}
	if want[1] == want[0] {
		t.Error("a non-default timing shares the default's bound")
	}
	if want[2] != want[0] {
		t.Error("a timing field the bound ignores changed it")
	}

	// Concurrent callers (run under -race) all see the memoised values.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, mcfg := range timings {
				if got, err := DataflowLimit(mcfg); err != nil || got != want[i] {
					t.Errorf("concurrent DataflowLimit(%+v) = %d, %v; want %d", mcfg, got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if n := memoLen(dataflowMemo); n > dataflowMemo.max {
		t.Errorf("memo holds %d timings, bound %d", n, dataflowMemo.max)
	}

	// A full memo stays at its bound and keeps answering what it holds.
	m := newBoundMemo(4)
	for i := 0; i < 3*m.max; i++ {
		k := boundConfig(MachineConfig{FwdLatency: 1 + i})
		m.put(k, int64(i))
		if v, ok := m.get(k); !ok || v != int64(i) {
			t.Errorf("memo lost the entry just stored: %d, %v", v, ok)
		}
		if n := memoLen(m); n > m.max {
			t.Fatalf("memo holds %d entries, bound %d", n, m.max)
		}
	}
}

func memoLen(b *boundMemo) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
