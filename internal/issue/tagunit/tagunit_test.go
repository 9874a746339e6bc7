package tagunit_test

import (
	"testing"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/issue"
	"ruu/internal/issue/tagunit"
	"ruu/internal/machine"
)

func run(t *testing.T, e *tagunit.Engine, src string) (machine.Result, *exec.State) {
	t.Helper()
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(e, machine.Config{})
	st := exec.NewState(u.NewMemory())
	res, err := m.Run(u.Prog, st)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestIdentityAndModes: the reported name follows the organisation, and
// none of the organisations claims precise interrupts.
func TestIdentityAndModes(t *testing.T) {
	cases := []struct {
		cfg  tagunit.Config
		name string
	}{
		{tagunit.Config{TagUnitSize: 4}, "tu-dist"},
		{tagunit.Config{TagUnitSize: 4, PoolSize: 6}, "tu-pool"},
		{tagunit.Config{}, "tomasulo"},
		{tagunit.Config{Stations: 2}, "tomasulo"},
	}
	for _, c := range cases {
		e := tagunit.New(c.cfg)
		if got := e.Name(); got != c.name {
			t.Errorf("%+v: Name() = %q, want %q", c.cfg, got, c.name)
		}
		if e.Precise() {
			t.Errorf("%+v: station-pool machines are imprecise", c.cfg)
		}
	}
}

// TestRSTUIdentity: a pool of per-register-tagged stations is the RSTU
// of §3.2.3. It reports "rstu", or "rstu-2p" with a two-path dispatch
// budget, never claims precise interrupts, and holds exactly PoolSize
// entries: five independent multiplies fit in five entries, not in four.
// (The default of 10 entries lives in ruu.NewEngine; see
// ruu:TestRSTUDefaultSize.)
func TestRSTUIdentity(t *testing.T) {
	cases := []struct {
		cfg  tagunit.Config
		name string
	}{
		{tagunit.Config{PoolSize: 5}, "rstu"},
		{tagunit.Config{PoolSize: 5, Paths: 1}, "rstu"},
		{tagunit.Config{PoolSize: 5, Paths: 2}, "rstu-2p"},
	}
	for _, c := range cases {
		e := tagunit.New(c.cfg)
		if got := e.Name(); got != c.name {
			t.Errorf("%+v: Name() = %q, want %q", c.cfg, got, c.name)
		}
		if e.Precise() {
			t.Errorf("%+v: the RSTU must not claim precise interrupts", c.cfg)
		}
	}
	src := `
    fmul   S1, S6, S6
    fmul   S2, S6, S6
    fmul   S3, S6, S6
    fmul   S4, S6, S6
    fmul   S5, S6, S6
    halt
`
	entryStalls := func(n int) int64 {
		res, _ := run(t, tagunit.New(tagunit.Config{PoolSize: n}), src)
		return res.Stats.Stalls[issue.StallEntry]
	}
	if five, four := entryStalls(5), entryStalls(4); five != 0 || four == 0 {
		t.Fatalf("entry stalls: 5 entries %d, 4 entries %d", five, four)
	}
}

// TestDefaultStations: distributed stations default to DefaultStations
// per unit (three, as on the 360/91), and a station-bound run shows it.
func TestDefaultStations(t *testing.T) {
	if tagunit.DefaultStations != 3 {
		t.Fatalf("DefaultStations = %d, want 3", tagunit.DefaultStations)
	}
	src := `
    lsi    S6, 42
    frecip S1, S6
    fadd   S2, S1, S1
    fadd   S3, S1, S1
    fadd   S4, S1, S1
    fadd   S5, S1, S1
    halt
`
	cycles := func(n int) int64 {
		res, _ := run(t, tagunit.New(tagunit.Config{Stations: n}), src)
		return res.Stats.Cycles
	}
	if def, three, one := cycles(0), cycles(3), cycles(1); def != three || def == one {
		t.Fatalf("cycles: default %d, 3 stations %d, 1 station %d", def, three, one)
	}
}

// TestStationFreedAtDispatchWithTU: with a separate Tag Unit the station
// is released when the operation enters its unit (the tag travels with
// it), so a 1-station-per-unit configuration still streams independent
// same-unit operations without starving.
func TestStationFreedAtDispatchWithTU(t *testing.T) {
	res, st := run(t, tagunit.New(tagunit.Config{TagUnitSize: 12, Stations: 1}), `
    lsi  S6, 3
    fadd S1, S6, S6
    fadd S2, S6, S6
    fadd S3, S6, S6
    halt
`)
	// Three back-to-back ready fadds through ONE station: each occupies
	// it for one cycle only. If stations were held to completion this
	// would serialize at the fadd latency (6) per instruction.
	if res.Stats.Cycles > 20 {
		t.Fatalf("%d cycles: station apparently held past dispatch", res.Stats.Cycles)
	}
	want := exec.Bits(exec.F64(3) + exec.F64(3))
	if st.S[1] != want || st.S[2] != want || st.S[3] != want {
		t.Fatal("wrong results")
	}
}

// TestEntryHeldUntilRegisterUpdate: the §3.2.3 property — an RSTU entry
// is both tag and station, so it is occupied while its instruction
// transits the functional unit. With 2 entries, a third independent
// instruction stalls even though the first two have already dispatched.
func TestEntryHeldUntilRegisterUpdate(t *testing.T) {
	res, st := run(t, tagunit.New(tagunit.Config{PoolSize: 2}), `
    lsi    S6, 42
    frecip S1, S6
    frecip S2, S6
    frecip S3, S6
    halt
`)
	if res.Stats.Stalls[issue.StallEntry] == 0 {
		t.Fatal("entries were recycled before register update")
	}
	want := exec.Bits(1.0 / exec.F64(42))
	if st.S[1] != want || st.S[2] != want || st.S[3] != want {
		t.Fatal("wrong results")
	}
}

// TestPerRegisterTagsUnlimited: Tomasulo mode has no Tag Unit cap; many
// outstanding destinations are limited only by stations.
func TestPerRegisterTagsUnlimited(t *testing.T) {
	_, st := run(t, tagunit.New(tagunit.Config{Stations: 8}), `
    lsi    S6, 42
    frecip S1, S6
    frecip S2, S6
    frecip S3, S6
    frecip S4, S6
    frecip S5, S6
    halt
`)
	want := exec.Bits(1.0 / exec.F64(42))
	for i := 1; i <= 5; i++ {
		if st.S[i] != want {
			t.Fatalf("S%d wrong", i)
		}
	}
}

// TestClassicRenaming: WAW and WAR hazards dissolve through per-register
// tags — the 360/91's contribution, inherited by every engine above it.
func TestClassicRenaming(t *testing.T) {
	_, st := run(t, tagunit.New(tagunit.Config{Stations: 3}), `
    lsi    S2, 42
    frecip S1, S2    ; slow producer of S1 (old instance)
    adds   S3, S1, S1 ; WAR: reads the OLD S1 instance... after it arrives
    lsi    S1, 7     ; WAW: new instance issues without waiting
    adds   S4, S1, S1 ; reads the NEW instance
    halt
`)
	// adds is an integer add, so S3 holds twice the reciprocal's raw
	// bit pattern (the OLD S1 instance).
	recipBits := exec.Bits(1.0 / exec.F64(42))
	if st.S[3] != recipBits+recipBits {
		t.Fatalf("S3 = %#x, want %#x (old-instance read broken)", st.S[3], recipBits+recipBits)
	}
	if st.S[4] != 14 {
		t.Fatalf("S4 = %d (new-instance read broken)", st.S[4])
	}
	if st.S[1] != 7 {
		t.Fatalf("S1 = %d (latest copy lost)", st.S[1])
	}
}

// TestOutOfOrderCompletionUpdatesRegistersEarly — the imprecision that
// motivates the RUU: a younger, faster instruction's register update is
// architecturally visible while an older one is still in flight. We
// observe it via the trap stop state.
func TestOutOfOrderCompletionUpdatesRegistersEarly(t *testing.T) {
	res, st := run(t, tagunit.New(tagunit.Config{PoolSize: 8}), `
    lsi    S6, 42
    frecip S1, S6    ; old, slow
    lai    A1, 7     ; young, fast
    lds    S2, -1(A7) ; faults at dispatch (address -1)
    halt
`)
	if res.Trap == nil || res.Precise {
		t.Fatalf("expected an imprecise trap, got %v precise=%v", res.Trap, res.Precise)
	}
	if st.A[1] != 7 {
		t.Fatal("young instruction's update should already be visible (imprecise)")
	}
	if st.S[1] != 0 {
		t.Fatal("old slow instruction should still be in flight at the trap")
	}
}
