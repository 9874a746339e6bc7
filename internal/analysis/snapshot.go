package analysis

import (
	"sync"

	"ruu/internal/analysis/ssa"
)

// Snapshot is one loaded, type-checked view of the packages under
// analysis plus the expensive derived structures the passes share.
// Before the snapshot existed every dataflow pass built its own module
// call graph (and the lint driver was invoked once per output format,
// re-parsing and re-type-checking the whole module each time); now a
// single Load feeds a single Snapshot, the call graph is built at most
// once, and every pass — and every output format — runs off the same
// in-memory state. The BenchmarkRuulint* pair in internal/bench tracks
// the wall-clock effect as the ruulint_ns trajectory point.
type Snapshot struct {
	// Packages are the packages under analysis, in load order (sorted
	// by import path).
	Packages []*Package

	byPath map[string]*Package

	graphOnce sync.Once
	graph     *CallGraph

	vf *ssa.Program
}

// NewSnapshot wraps the packages for shared analysis.
func NewSnapshot(pkgs []*Package) *Snapshot {
	s := &Snapshot{Packages: pkgs, byPath: make(map[string]*Package, len(pkgs)), vf: ssa.NewProgram()}
	for _, p := range pkgs {
		s.byPath[p.Path] = p
	}
	return s
}

// ByPath returns the loaded package with the given import path, nil
// when absent.
func (s *Snapshot) ByPath(path string) *Package { return s.byPath[path] }

// Graph returns the module call graph, building it on first use and
// sharing it across every pass of this snapshot. Safe for concurrent
// use: passes may run in parallel off one snapshot.
func (s *Snapshot) Graph() *CallGraph {
	s.graphOnce.Do(func() {
		s.graph = BuildCallGraph(s.Packages)
	})
	return s.graph
}

// ValueFlow returns the snapshot's shared SSA cache, so the value-flow
// passes build each function's IR at most once per snapshot.
func (s *Snapshot) ValueFlow() *ssa.Program { return s.vf }
