// Package livermore provides the first 14 Lawrence Livermore loops —
// the paper's benchmark set — hand-written in the model architecture's
// scalar assembly.
//
// The paper ran the FORTRAN kernels through the CFT compiler for the
// CRAY-1 scalar unit and traced them with a CRAY-1 simulator; neither
// artifact is available, so these are scalar translations written the way
// CFT-era scalar code is structured: one index register per loop, FP
// scalars held in S registers (with T registers used as scalar saves
// where the register pressure warrants it, and B registers for saved
// indices in the nested kernels), and loop control through the A0
// condition register — the paper notes "most branch instructions in the
// benchmark programs tested the value of the A0 register". The
// substitution preserves what the experiments measure: the dependence
// structure and instruction mix of scalar loop code.
//
// Every kernel carries a Go mirror of its computation; Check compares the
// simulated memory image bit-for-bit against the mirror, so the assembly
// and every issue engine are validated against an independent
// implementation.
package livermore

import (
	"fmt"
	"math"
	"sync"

	"ruu/internal/asm"
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/memsys"
	"ruu/internal/sched"
)

// Kernel is one Livermore loop.
type Kernel struct {
	// Name is "LLL1" ... "LLL14".
	Name string
	// Description summarises the computation.
	Description string
	// N is the problem size (trip count of the main loop).
	N int
	// Source is the assembly text.
	Source string
	// Init writes the input data image (beyond the assembler's static
	// data) into memory. May be nil.
	Init func(m *memsys.Memory, u *asm.Unit)
	// Check verifies the final architectural state against a Go mirror
	// of the kernel.
	Check func(st *exec.State, u *asm.Unit) error

	once sync.Once
	unit *asm.Unit
	err  error

	digestOnce sync.Once
	digest     sched.Key
	digestErr  error
}

// Unit assembles the kernel (cached).
func (k *Kernel) Unit() (*asm.Unit, error) {
	k.once.Do(func() { k.unit, k.err = asm.Assemble(k.Source) })
	return k.unit, k.err
}

// NewState returns a fresh architectural state with the kernel's data
// image initialised.
func (k *Kernel) NewState() (*exec.State, error) {
	u, err := k.Unit()
	if err != nil {
		return nil, err
	}
	m := u.NewMemory()
	if k.Init != nil {
		k.Init(m, u)
	}
	return exec.NewState(m), nil
}

// Digest returns the content address of the kernel's input: a hash of
// its encoded program and its complete initial architectural state
// (registers, PC, halt flag, and the memory image after Init). Like
// Unit it is computed once: a kernel and its Init are fixed code, so
// job keys hash this 32-byte digest instead of rebuilding and rehashing
// the whole memory image for every job.
func (k *Kernel) Digest() (sched.Key, error) {
	k.digestOnce.Do(func() { k.digest, k.digestErr = k.computeDigest() })
	return k.digest, k.digestErr
}

func (k *Kernel) computeDigest() (sched.Key, error) {
	u, err := k.Unit()
	if err != nil {
		return sched.NoKey, err
	}
	parcels, err := isa.Encode(u.Prog)
	if err != nil {
		return sched.NoKey, err
	}
	st, err := k.NewState()
	if err != nil {
		return sched.NoKey, err
	}
	var regs [isa.NumRegs]int64
	for i := range regs {
		regs[i] = st.Reg(isa.FromFlat(i))
	}
	h := sched.NewHasher()
	h.String("input", "state")
	sched.Uint16s(h, "prog", parcels)
	h.Int64s("regs", regs[:])
	h.Int("pc", int64(st.PC))
	h.Bool("halted", st.Halted)
	h.Int64s("mem", st.Mem.Words())
	return h.Sum(), nil
}

// Verify runs Check against a final state.
func (k *Kernel) Verify(st *exec.State) error {
	u, err := k.Unit()
	if err != nil {
		return err
	}
	return k.Check(st, u)
}

// Kernels returns all 14 kernels in order.
func Kernels() []*Kernel {
	return []*Kernel{
		lll1, lll2, lll3, lll4, lll5, lll6, lll7,
		lll8, lll9, lll10, lll11, lll12, lll13, lll14,
	}
}

// ByName returns the named kernel, or nil.
func ByName(name string) *Kernel {
	for _, k := range Kernels() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// --- shared helpers -------------------------------------------------------

// val is the deterministic input-data generator shared by the assembly
// data images and the Go mirrors: simple exactly-representable values so
// that IEEE arithmetic in the simulator and the mirror agree bit-for-bit.
func val(i int) float64 {
	return 1.0 + float64(i%13)*0.25 + float64(i%7)*0.03125
}

func val2(i int) float64 {
	return 0.5 + float64(i%11)*0.125
}

// fillF writes f(i) for i in [0,n) starting at base.
func fillF(m *memsys.Memory, base int64, n int, f func(i int) float64) {
	for i := 0; i < n; i++ {
		m.Poke(base+int64(i), int64(math.Float64bits(f(i))))
	}
}

// fillI writes g(i) for i in [0,n) starting at base.
func fillI(m *memsys.Memory, base int64, n int, g func(i int) int64) {
	for i := 0; i < n; i++ {
		m.Poke(base+int64(i), g(i))
	}
}

// peekF reads a float64 from memory.
func peekF(m *memsys.Memory, addr int64) float64 {
	return math.Float64frombits(uint64(m.Peek(addr)))
}

// sym resolves a data symbol, panicking on absence (the sources are
// fixed, so a missing symbol is a programming error in this package).
func sym(u *asm.Unit, name string) int64 {
	v, ok := u.Symbols[name]
	if !ok {
		panic("livermore: missing symbol " + name)
	}
	return v
}

// checkF compares n float64 words at base against want(i).
func checkF(st *exec.State, base int64, n int, what string, want func(i int) float64) error {
	for i := 0; i < n; i++ {
		got := peekF(st.Mem, base+int64(i))
		w := want(i)
		if math.Float64bits(got) != math.Float64bits(w) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got, w)
		}
	}
	return nil
}

// checkI compares n integer words at base against want(i).
func checkI(st *exec.State, base int64, n int, what string, want func(i int) int64) error {
	for i := 0; i < n; i++ {
		got := st.Mem.Peek(base + int64(i))
		w := want(i)
		if got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}
