package main

import (
	"errors"
	"fmt"
	"math/rand"

	"ruu"
	"ruu/internal/livermore"
)

// Seeded input generation. Every input a workload sends is derived here
// from the workload seed, and built before its timed region starts.

// cell is one cell of the paper's sweep tables: one Sweep call at one
// entry count.
type cell struct {
	table int
	cfg   ruu.Config
	n     int
}

func (c cell) String() string { return fmt.Sprintf("table %d, %d entries", c.table, c.n) }

// sweepCells returns the 72 cells of Tables 2-7 (six tables, twelve
// paper sizes each) in table order.
func sweepCells() []cell {
	spec := ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassFull}
	spec.Machine.Speculate = true
	tables := []struct {
		table int
		cfg   ruu.Config
		sizes []int
	}{
		{2, ruu.Config{Engine: ruu.EngineRSTU}, ruu.RSTUSizes},
		{3, ruu.Config{Engine: ruu.EngineRSTU, Paths: 2}, ruu.RSTUSizes},
		{4, ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassFull}, ruu.RUUSizes},
		{5, ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassNone}, ruu.RUUSizes},
		{6, ruu.Config{Engine: ruu.EngineRUU, Bypass: ruu.BypassLimited}, ruu.RUUSizes},
		{7, spec, ruu.RUUSizes},
	}
	var cells []cell
	for _, t := range tables {
		for _, n := range t.sizes {
			cells = append(cells, cell{t.table, t.cfg, n})
		}
	}
	return cells
}

// cellOrder returns the order sweep-cold visits the cells in: passes
// back-to-back passes, each a fresh seeded permutation of all 72, so a
// run of any length spreads evenly over the tables.
func cellOrder(seed int64, passes int) []int {
	rng := rand.New(rand.NewSource(seed))
	n := len(sweepCells())
	order := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// item is one (configuration, program) request, in the JSON shape of
// POST /v1/simulate and of one POST /v1/batch item. Exactly one of Asm
// and Kernel is set.
type item struct {
	Engine    string `json:"engine"`
	Entries   int    `json:"entries"`
	Paths     int    `json:"paths,omitempty"`
	Bypass    string `json:"bypass,omitempty"`
	LoadRegs  int    `json:"load_regs"`
	Speculate bool   `json:"speculate,omitempty"`
	Asm       string `json:"asm,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
}

// config is the simulator configuration the service builds for it.
func (it item) config() ruu.Config {
	cfg := ruu.Config{
		Engine:  ruu.EngineKind(it.Engine),
		Entries: it.Entries,
		Paths:   it.Paths,
		Bypass:  ruu.BypassKind(it.Bypass),
	}
	cfg.Machine.LoadRegs = it.LoadRegs
	cfg.Machine.Speculate = it.Speculate
	return cfg
}

// unit assembles the item's program the way the service does.
func (it item) unit() (*ruu.Unit, error) {
	if it.Asm != "" {
		return ruu.Assemble(it.Asm)
	}
	k := livermore.ByName(it.Kernel)
	if k == nil {
		return nil, fmt.Errorf("unknown kernel %q", it.Kernel)
	}
	return k.Unit()
}

// engineClass names the engine family an item simulates, as the
// engine.ns_per_simcycle metrics group them.
func engineClass(cfg ruu.Config) string {
	switch {
	case cfg.Engine == ruu.EngineSimple:
		return "simple"
	case cfg.Engine == ruu.EngineRSTU:
		return "rstu"
	case cfg.Machine.Speculate:
		return "ruu_spec"
	default:
		return "ruu"
	}
}

// Item space: every (configuration, kernel) pair below is distinct, so
// no two items share a job key. It holds 1984 configurations x 14
// kernels = 27776 items.
var (
	spaceEntries  = [2]int{3, 64}
	spaceLoadRegs = []int{2, 4, 6, 8}
	spaceBypass   = []string{"full", "none", "limited"}
)

// itemSpace enumerates the configurations of the item space, times the
// kernels, in a fixed order.
func itemSpace() []item {
	var cfgs []item
	for n := spaceEntries[0]; n <= spaceEntries[1]; n++ {
		for _, lr := range spaceLoadRegs {
			for _, paths := range []int{1, 2} {
				cfgs = append(cfgs, item{Engine: "rstu", Entries: n, Paths: paths, LoadRegs: lr})
			}
			for _, b := range spaceBypass {
				for _, spec := range []bool{false, true} {
					cfgs = append(cfgs, item{Engine: "ruu", Entries: n, Bypass: b, LoadRegs: lr, Speculate: spec})
				}
			}
		}
	}
	var items []item
	for _, c := range cfgs {
		for _, k := range livermore.Kernels() {
			c.Kernel = k.Name
			items = append(items, c)
		}
	}
	return items
}

// errWrapped reports that a workload asked for more distinct items than
// the item space holds; a cold workload must never repeat one.
var errWrapped = errors.New("item set wrapped: a cold workload would repeat an item")

// itemStream hands out the item space in a seeded order, each item at
// most once. One item in asmEvery is sent as assembly source text, the
// rest by kernel name; the choice is seeded too.
type itemStream struct {
	items []item
	pos   int
}

// newItemStream shuffles space with seed.
func newItemStream(space []item, seed int64, asmEvery int) *itemStream {
	rng := rand.New(rand.NewSource(seed))
	items := make([]item, len(space))
	for i, j := range rng.Perm(len(space)) {
		it := space[j]
		if rng.Intn(asmEvery) == 0 {
			it.Asm = livermore.ByName(it.Kernel).Source
			it.Kernel = ""
		}
		items[i] = it
	}
	return &itemStream{items: items}
}

// take returns the next n items, or errWrapped once the stream would
// have to repeat an item.
func (s *itemStream) take(n int) ([]item, error) {
	if s.pos+n > len(s.items) {
		return nil, fmt.Errorf("%w (%d of %d items used, %d more asked)", errWrapped, s.pos, len(s.items), n)
	}
	out := s.items[s.pos : s.pos+n]
	s.pos += n
	return out, nil
}
