package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// The repo-level tests (tree-clean gate, race test) both need the
// module loaded and type-checked. loadRepo does it once per test
// binary; the Module is read-only by convention (tests build their own
// Snapshots and pass sets over it).
var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			repoErr = err
			return
		}
		repoMod, repoErr = Load(root)
	})
	if repoErr != nil {
		t.Fatalf("load repo: %v", repoErr)
	}
	return repoMod
}

// repoRoot returns the module root directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}
