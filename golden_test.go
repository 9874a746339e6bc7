package ruu_test

import (
	"testing"

	"ruu"
	"ruu/internal/livermore"
)

// TestGoldenCycleCounts pins exact cycle counts for a spread of
// configurations and kernels. The timing model is deterministic, so any
// drift here is a real change to the simulated microarchitecture: if a
// change is intentional, update the goldens AND re-run cmd/tables to
// refresh EXPERIMENTS.md; if not, this test just caught a timing
// regression that the architectural-equivalence tests cannot see.
func TestGoldenCycleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep")
	}
	type key struct {
		kernel, cfg string
	}
	configs := map[string]ruu.Config{
		"simple":     {Engine: ruu.EngineSimple},
		"tomasulo":   {Engine: ruu.EngineTomasulo},
		"tu-dist":    {Engine: ruu.EngineTagUnit},
		"tu-pool":    {Engine: ruu.EngineRSPool},
		"rstu10":     {Engine: ruu.EngineRSTU, Entries: 10},
		"rstu10-2p":  {Engine: ruu.EngineRSTU, Entries: 10, Paths: 2},
		"ruu12-full": {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassFull},
		"ruu12-none": {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassNone},
		"ruu12-lim":  {Engine: ruu.EngineRUU, Entries: 12, Bypass: ruu.BypassLimited},
		"reorder12":  {Engine: ruu.EngineReorder, Entries: 12},
	}
	// The pinned values (regenerate with -run TestGoldenCycleCounts -v
	// after an intentional timing change and copy from the log).
	expect := map[key]int64{
		{"LLL1", "simple"}:      16806,
		{"LLL1", "tomasulo"}:    9926,
		{"LLL1", "tu-dist"}:     8429,
		{"LLL1", "tu-pool"}:     8429,
		{"LLL1", "rstu10"}:      8429,
		{"LLL1", "rstu10-2p"}:   8228,
		{"LLL1", "ruu12-full"}:  10619,
		{"LLL1", "ruu12-none"}:  10424,
		{"LLL1", "ruu12-lim"}:   10619,
		{"LLL1", "reorder12"}:   16806,
		{"LLL5", "simple"}:      26892,
		{"LLL5", "tomasulo"}:    16445,
		{"LLL5", "tu-dist"}:     16445,
		{"LLL5", "tu-pool"}:     16445,
		{"LLL5", "rstu10"}:      16445,
		{"LLL5", "rstu10-2p"}:   15948,
		{"LLL5", "ruu12-full"}:  16447,
		{"LLL5", "ruu12-none"}:  23910,
		{"LLL5", "ruu12-lim"}:   16447,
		{"LLL5", "reorder12"}:   26892,
		{"LLL13", "simple"}:     22001,
		{"LLL13", "tomasulo"}:   18265,
		{"LLL13", "tu-dist"}:    17265,
		{"LLL13", "tu-pool"}:    16265,
		{"LLL13", "rstu10"}:     16265,
		{"LLL13", "rstu10-2p"}:  14767,
		{"LLL13", "ruu12-full"}: 16017,
		{"LLL13", "ruu12-none"}: 17760,
		{"LLL13", "ruu12-lim"}:  16017,
		{"LLL13", "reorder12"}:  22001,
	}
	for name, cfg := range configs {
		for _, kn := range []string{"LLL1", "LLL5", "LLL13"} {
			k := livermore.ByName(kn)
			u, err := k.Unit()
			if err != nil {
				t.Fatal(err)
			}
			m, err := ruu.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.NewState()
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(u.Prog, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", kn, name, err)
			}
			t.Logf("{%q, %q}: %d,", kn, name, res.Stats.Cycles)
			if want := expect[key{kn, name}]; want != 0 && res.Stats.Cycles != want {
				t.Errorf("%s/%s: %d cycles, golden %d", kn, name, res.Stats.Cycles, want)
			}
		}
	}
}
