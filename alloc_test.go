package ruu_test

import (
	"fmt"
	"runtime"
	"testing"

	"ruu"
)

// allocLoop is a counted loop with a load and a store per iteration, so
// a run exercises the issue engine, the functional units, the result
// bus, and the load registers every cycle.
func allocLoop(n int) string {
	return fmt.Sprintf(`
.equ   n %d
.array x 8

    lai   A7, 0
    lai   A0, =n         ; loop countdown (A0 is the branch register)
    lsi   S1, 1
loop:
    lds   S2, =x(A7)
    adds  S2, S2, S1
    sts   S2, =x(A7)
    addai A0, A0, -1
    janz  loop
    halt
`, n)
}

// TestCycleZeroAllocs proves the claim behind the hotpathalloc pass
// (internal/analysis): with the nil probe, a simulated machine cycle
// allocates nothing. Allocation per cycle is measured as a delta — a
// short and a long run of the same loop share identical setup (machine
// construction, state image, warm-up growth of the engines' reusable
// buffers) and differ only in steady-state cycles executed, so any
// per-cycle allocation would separate their testing.AllocsPerRun
// counts by hundreds.
func TestCycleZeroAllocs(t *testing.T) {
	const shortN, longN = 8, 512
	engines := []ruu.EngineKind{
		ruu.EngineSimple, ruu.EngineTomasulo, ruu.EngineTagUnit,
		ruu.EngineRSPool, ruu.EngineRSTU, ruu.EngineRUU,
	}
	for _, eng := range engines {
		t.Run(string(eng), func(t *testing.T) {
			cfg := ruu.Config{Engine: eng}
			measure := func(n int) (allocs float64, cycles int64) {
				u, err := ruu.Assemble(allocLoop(n))
				if err != nil {
					t.Fatal(err)
				}
				run := func() ruu.Result {
					m, err := ruu.NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.Run(u.Prog, ruu.NewState(u))
					if err != nil || res.Trap != nil {
						t.Fatalf("run failed: %v trap=%v", err, res.Trap)
					}
					return res
				}
				cycles = run().Stats.Cycles
				// Collect first, so that no GC cycle the earlier
				// runs provoked (the process's first among them) lands
				// inside the measurement and is counted as the run's.
				runtime.GC()
				return testing.AllocsPerRun(5, func() { run() }), cycles
			}
			shortAllocs, shortCycles := measure(shortN)
			longAllocs, longCycles := measure(longN)
			if longCycles < shortCycles+500 {
				t.Fatalf("loop sizing broken: short=%d long=%d cycles", shortCycles, longCycles)
			}
			if delta := longAllocs - shortAllocs; delta > 0.5 {
				perCycle := delta / float64(longCycles-shortCycles)
				t.Errorf("per-cycle allocation: %d extra cycles cost %.1f extra allocs (%.4f/cycle); want 0",
					longCycles-shortCycles, delta, perCycle)
			}
		})
	}
}
