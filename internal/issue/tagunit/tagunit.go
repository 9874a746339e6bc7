// Package tagunit implements the paper's §3.1–§3.2.3 line of
// dependency-resolution mechanisms, all refinements of Tomasulo's
// algorithm that differ in where tags live and how the reservation
// stations are organised. One engine covers all of them:
//
//   - Tomasulo's algorithm (§3.1): a tag and tag-matching hardware for
//     every register (the paper's objection: 144 tag-matching units),
//     with reservation stations distributed per functional unit.
//   - A separate Tag Unit (§3.2.1, Figure 2): tags are pooled in a TU
//     sized for the number of *currently active* destination registers;
//     instruction issue blocks when the TU is full.
//   - A merged RS pool (§3.2.2): the distributed stations are combined
//     into one shared pool so no unit starves while another idles.
//   - The RS Tag Unit (§3.2.3, Figure 4): the merged pool with
//     per-register tags, so each station is simultaneously a tag and a
//     reservation station. A station is acquired at issue and held until
//     its result has been forwarded to the register file, so it is
//     "wasted" while its instruction transits a functional unit — the
//     organisation the paper deliberately trades for the ability to
//     extend it into the RUU (internal/core).
//
// All of them update the register file out of program order (when
// results broadcast), so none provides precise interrupts. With a
// separate Tag Unit, a reservation station is released when its
// instruction dispatches to a functional unit (the tag travels with the
// operation); with per-register tags the station itself is the tag and
// is held until the result is broadcast.
//
// Config.Paths reproduces Table 3's experiment: the number of data paths
// from the stations to the functional units, i.e. the number of
// instructions that may dispatch per cycle (the decode unit still issues
// at most one instruction per cycle, which is why the paper finds a
// second path makes little difference).
package tagunit

import (
	"ruu/internal/exec"
	"ruu/internal/isa"
	"ruu/internal/issue"
	"ruu/internal/memsys"
	"ruu/internal/obs"
)

// Config selects the organisation.
type Config struct {
	// TagUnitSize caps the number of in-flight destination registers
	// (active tags). Zero means per-register tags (Tomasulo and the
	// RSTU): no cap beyond the stations themselves, and each station is
	// held until its result broadcasts.
	TagUnitSize int
	// PoolSize, when positive, merges all reservation stations into one
	// shared pool of that size (§3.2.2, §3.2.3). When zero, Stations
	// reservation stations are distributed to each functional unit.
	PoolSize int
	// Stations is the station count per functional unit in distributed
	// mode (DefaultStations when not positive).
	Stations int
	// Paths is the number of instructions that may dispatch per cycle
	// (default 1).
	Paths int
}

// DefaultStations is the distributed station count per functional unit
// (the IBM 360/91 floating-point unit had two to three stations per
// unit).
const DefaultStations = 3

type operand struct {
	ready bool
	tag   int64 // producer id when !ready
	value int64
}

type station struct {
	used       bool
	dispatched bool  // in a functional unit; held only as a live tag
	id         int64 // dynamic-instruction id (observability)
	seq        int64
	pc         int
	ins        isa.Instruction
	issueCycle int64
	// readyAt is the cycle in which the last waiting operand was gated
	// in from the result bus; a station may dispatch only in a later
	// cycle (gate-in and compare take a stage, so a value caught off the
	// bus is usable by the dispatch logic the next cycle).
	readyAt int64

	op1, op2 operand

	dest  isa.Reg
	tagID int64

	isMem      bool
	isStore    bool
	bound      bool // effective address bound to a load register
	addr       int64
	binding    memsys.Binding
	memChecked bool // trap check performed (exactly once per operation)
}

// flight is an operation in a functional unit: its result broadcasts on
// the given cycle carrying the producer's tag. Only loads and
// computational operations fly, and every one of them has a
// destination register.
type flight struct {
	cycle   int64
	idx     int   // producing station (still held with per-register tags)
	id      int64 // dynamic-instruction id (observability)
	pc      int
	tagID   int64
	dest    isa.Reg
	value   int64
	binding memsys.Binding
}

// Engine is the station-pool issue engine.
type Engine struct {
	cfg Config
	ctx *issue.Context

	stations []station
	// unitOf[i] is the unit class owning station i in distributed mode
	// (nil in pooled mode: any station serves any unit).
	unitOf []isa.Unit

	regBusy [isa.NumRegs]bool
	regTag  [isa.NumRegs]int64

	outstandingTags int

	memQueue []int // station indices of unbound memory ops, program order
	memHead  int   // first live element of memQueue (popped by index, not reslice)
	flights  []flight
	seqBuf   []int // scratch for bySeq (avoids per-cycle allocation)

	nextSeq  int64
	inFlight int
	retired  int64
	trap     *exec.Trap

	// freeAtDispatch: stations release when the operation enters a
	// functional unit (separate-TU modes).
	freeAtDispatch bool
}

// New returns an engine with the given organisation.
func New(cfg Config) *Engine {
	if cfg.Stations <= 0 {
		cfg.Stations = DefaultStations
	}
	if cfg.Paths <= 0 {
		cfg.Paths = 1
	}
	return &Engine{cfg: cfg, freeAtDispatch: cfg.TagUnitSize > 0}
}

// Name implements issue.Engine. Paths shows only in the RSTU's name,
// the one organisation the paper measures with two paths (Table 3).
func (e *Engine) Name() string {
	switch {
	case e.cfg.TagUnitSize > 0 && e.cfg.PoolSize > 0:
		return "tu-pool"
	case e.cfg.TagUnitSize > 0:
		return "tu-dist"
	case e.cfg.PoolSize == 0:
		return "tomasulo"
	case e.cfg.Paths > 1:
		return "rstu-2p"
	default:
		return "rstu"
	}
}

// Reset implements issue.Engine. The stations are built on the first
// Reset, not in New, so constructing an engine only to validate a
// configuration stays cheap.
func (e *Engine) Reset(ctx *issue.Context) {
	e.ctx = ctx
	if e.stations == nil {
		n := e.cfg.PoolSize
		if n == 0 {
			for u := isa.Unit(1); u < isa.NumUnits; u++ {
				for i := 0; i < e.cfg.Stations; i++ {
					e.unitOf = append(e.unitOf, u)
				}
			}
			n = len(e.unitOf)
		}
		e.stations = make([]station, n)
	}
	e.nextSeq = 0
	e.retired = 0
	e.clear()
	ctx.Bus.Reset()
}

// clear empties every station, tag and in-flight operation.
func (e *Engine) clear() {
	clear(e.stations)
	e.regBusy = [isa.NumRegs]bool{}
	e.outstandingTags = 0
	e.memQueue, e.memHead = e.memQueue[:0], 0
	e.flights = e.flights[:0]
	e.inFlight = 0
	e.trap = nil
	e.ctx.LoadRegs.Reset()
}

// BeginCycle broadcasts results whose latency expires this cycle: waiting
// station operands gate in matching tags; the Tag Unit (or the tagged
// register itself) forwards the value to the register file if the tag is
// still the latest for its register. With per-register tags the
// producing station is the tag and is freed only now.
func (e *Engine) BeginCycle(c int64) {
	out := e.flights[:0]
	for _, fl := range e.flights {
		if fl.cycle != c {
			out = append(out, fl)
			continue
		}
		for i := range e.stations {
			s := &e.stations[i]
			if !s.used {
				continue
			}
			if !s.op1.ready && s.op1.tag == fl.tagID {
				s.op1.ready, s.op1.value = true, fl.value
				s.readyAt = fl.cycle
			}
			if !s.op2.ready && s.op2.tag == fl.tagID {
				s.op2.ready, s.op2.value = true, fl.value
				s.readyAt = fl.cycle
			}
		}
		// Only the latest tag for a register updates it: a newer
		// instance owns it otherwise.
		f := fl.dest.Flat()
		if e.regBusy[f] && e.regTag[f] == fl.tagID {
			e.ctx.State.SetReg(fl.dest, fl.value)
			e.regBusy[f] = false
		}
		e.outstandingTags--
		if fl.binding.Valid() {
			e.ctx.LoadRegs.SetData(fl.binding, fl.value)
			e.ctx.LoadRegs.Release(fl.binding)
		}
		if !e.freeAtDispatch {
			e.stations[fl.idx] = station{}
		}
		e.ctx.Observe(obs.KindWriteback, c, fl.id, fl.pc)
		e.ctx.Observe(obs.KindCommit, c, fl.id, fl.pc)
		e.inFlight--
		e.retired++
	}
	e.flights = out
}

// Dispatch implements issue.Engine: first the memory-address frontier
// advances (the memory unit computes one effective address per cycle, in
// program order among memory operations — §3.2.1.2), then up to Paths
// ready instructions dispatch to the functional units, loads and stores
// first, then oldest-first.
func (e *Engine) Dispatch(c int64) {
	e.advanceMemFrontier(c)

	budget := e.cfg.Paths
	order := e.bySeq()
	// Pass 1: memory operations first (priority rule shared with §5).
	for _, idx := range order {
		if budget == 0 {
			return
		}
		s := &e.stations[idx]
		if !s.used || !s.isMem || !s.bound || s.dispatched || s.issueCycle >= c || s.readyAt >= c {
			continue
		}
		if e.tryMemOp(c, idx) {
			budget--
		}
	}
	// Pass 2: computational operations.
	for _, idx := range order {
		if budget == 0 {
			return
		}
		s := &e.stations[idx]
		if !s.used || s.isMem || s.dispatched || s.issueCycle >= c || s.readyAt >= c || !s.op1.ready || !s.op2.ready {
			continue
		}
		lat := int64(e.ctx.Lat.Of(s.ins.Op))
		if !e.ctx.Bus.Reserve(c + lat) {
			continue
		}
		v := exec.ALU(s.ins, s.op1.value, s.op2.value)
		e.fly(c, c+lat, idx, v)
		budget--
	}
}

// fly sends station idx's operation into a functional unit, to broadcast
// value at cycle at. A separate-TU station is released now (the tag
// travels with the operation); a per-register-tag station stays as the
// live tag, marked dispatched.
func (e *Engine) fly(c, at int64, idx int, value int64) {
	s := &e.stations[idx]
	e.flights = append(e.flights, flight{at, idx, s.id, s.pc, s.tagID, s.dest, value, s.binding})
	e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
	e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
	if e.freeAtDispatch {
		*s = station{}
		return
	}
	s.dispatched = true
}

// bySeq returns used station indices in program (seq) order. The
// returned slice is valid until the next call.
func (e *Engine) bySeq() []int {
	idxs := e.seqBuf[:0]
	for i := range e.stations {
		if e.stations[i].used {
			idxs = append(idxs, i)
		}
	}
	// Insertion sort by seq: the stations are few.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && e.stations[idxs[j]].seq < e.stations[idxs[j-1]].seq; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	e.seqBuf = idxs
	return idxs
}

// advanceMemFrontier computes the effective address of the oldest unbound
// memory operation whose base register is available, binding it to a load
// register. At most one address per cycle; younger memory operations
// cannot bind before older ones.
func (e *Engine) advanceMemFrontier(c int64) {
	if e.trap != nil || e.memHead == len(e.memQueue) {
		return
	}
	idx := e.memQueue[e.memHead]
	s := &e.stations[idx]
	if s.issueCycle >= c || s.readyAt >= c || !s.op1.ready {
		return
	}
	addr := exec.EffAddr(s.ins, s.op1.value)
	if !s.memChecked {
		s.memChecked = true
		if t := issue.MemTrap(e.ctx, s.pc, addr); t != nil {
			// Imprecise machine: the trap is raised as soon as it is
			// detected, with younger and older work still in flight.
			e.trap = t
			return
		}
	}
	if !e.ctx.LoadRegs.CanBind(addr) {
		return // no load register obtainable; retry next cycle
	}
	// A load with no pending same-address operation goes straight to
	// memory: the address computation IS its dispatch to the memory unit,
	// so it reserves the result bus here rather than competing for a
	// station-to-functional-unit data path.
	toMemory := !s.isStore && !e.ctx.LoadRegs.Pending(addr)
	lat := int64(e.ctx.Lat[isa.UnitMem])
	if toMemory && !e.ctx.Bus.Reserve(c+lat) {
		return // bus slot taken; retry next cycle
	}
	b, toMem, ok := e.ctx.LoadRegs.Bind(addr, s.isStore)
	if !ok {
		return
	}
	s.addr, s.binding, s.bound = addr, b, true
	// Pop by head index; when the queue drains, reuse the backing
	// array from the front so the steady state allocates nothing.
	e.memHead++
	if e.memHead == len(e.memQueue) {
		e.memQueue, e.memHead = e.memQueue[:0], 0
	}
	if toMem {
		v, f := e.ctx.State.Mem.Read(addr)
		if f != nil {
			panic("tagunit: unexpected fault after bind-time check: " + f.Error())
		}
		e.fly(c, c+lat, idx, v)
	}
}

// tryMemOp attempts to complete a bound memory operation. Loads forward
// from the load-register chain and schedule a result broadcast; stores
// execute — write memory — once their data operand is ready. It reports
// whether a dispatch path was consumed.
func (e *Engine) tryMemOp(c int64, idx int) bool {
	s := &e.stations[idx]
	if s.isStore {
		if !s.op2.ready {
			return false
		}
		// Imprecise: memory is updated at execution time.
		if f := e.ctx.State.Mem.Write(s.addr, s.op2.value); f != nil {
			panic("tagunit: unexpected fault after bind-time check: " + f.Error())
		}
		e.ctx.LoadRegs.SetData(s.binding, s.op2.value)
		e.ctx.LoadRegs.Release(s.binding)
		e.ctx.Observe(obs.KindDispatch, c, s.id, s.pc)
		e.ctx.Observe(obs.KindExecute, c, s.id, s.pc)
		e.ctx.Observe(obs.KindWriteback, c, s.id, s.pc)
		e.ctx.Observe(obs.KindCommit, c, s.id, s.pc)
		e.stations[idx] = station{}
		e.inFlight--
		e.retired++
		return true
	}
	// Load: only forwarded loads reach here (memory-bound loads dispatch
	// at bind time).
	v, ok := e.ctx.LoadRegs.Forward(s.binding)
	if !ok {
		return false
	}
	lat := int64(e.ctx.FwdLatency)
	if !e.ctx.Bus.Reserve(c + lat) {
		return false
	}
	e.fly(c, c+lat, idx, v)
	return true
}

// TryIssue implements issue.Engine.
func (e *Engine) TryIssue(c int64, pc int, ins isa.Instruction) issue.StallReason {
	if e.trap != nil {
		return issue.StallDrain
	}
	if ins.Op == isa.Nop {
		e.retired++
		id := e.ctx.DecodeID
		e.ctx.Observe(obs.KindIssue, c, id, pc)
		e.ctx.Observe(obs.KindDispatch, c, id, pc)
		e.ctx.Observe(obs.KindExecute, c, id, pc)
		e.ctx.Observe(obs.KindWriteback, c, id, pc)
		e.ctx.Observe(obs.KindCommit, c, id, pc)
		return issue.StallNone
	}
	if ins.Op == isa.Trap {
		e.trap = &exec.Trap{Kind: exec.TrapExplicit, PC: pc}
		return issue.StallNone
	}
	info := ins.Op.Info()

	idx := -1
	for i := range e.stations {
		if !e.stations[i].used && (e.cfg.PoolSize > 0 || e.unitOf[i] == info.Unit) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return issue.StallEntry
	}
	dst, hasDst := ins.Dst()
	if hasDst && e.cfg.TagUnitSize > 0 && e.outstandingTags == e.cfg.TagUnitSize {
		return issue.StallDest // no tag can be obtained: issue blocks
	}

	s := station{
		used:       true,
		id:         e.ctx.DecodeID,
		seq:        e.nextSeq,
		pc:         pc,
		ins:        ins,
		issueCycle: c,
		binding:    memsys.Invalid,
		op1:        operand{ready: true},
		op2:        operand{ready: true},
		isMem:      info.Load || info.Store,
		isStore:    info.Store,
	}
	var srcBuf [2]isa.Reg
	srcs := ins.Srcs(srcBuf[:0])
	readOp := func(r isa.Reg) operand {
		f := r.Flat()
		if e.regBusy[f] {
			return operand{ready: false, tag: e.regTag[f]}
		}
		return operand{ready: true, value: e.ctx.State.Reg(r)}
	}
	if len(srcs) > 0 {
		s.op1 = readOp(srcs[0])
	}
	if len(srcs) > 1 {
		s.op2 = readOp(srcs[1])
	}
	if hasDst {
		s.dest = dst
		s.tagID = e.nextSeq
		f := dst.Flat()
		e.regBusy[f] = true
		e.regTag[f] = s.tagID
		e.outstandingTags++
	}
	e.stations[idx] = s
	e.nextSeq++
	e.inFlight++
	if s.isMem {
		e.memQueue = append(e.memQueue, idx)
	}
	e.ctx.Observe(obs.KindIssue, c, s.id, s.pc)
	return issue.StallNone
}

// TryReadCond implements issue.Engine: readable when the register has no
// pending producer (the register file is updated at broadcast, so no
// extra bypass is needed — this is the imprecise machines' advantage).
func (e *Engine) TryReadCond(_ int64, r isa.Reg) (int64, bool) {
	if e.regBusy[r.Flat()] {
		return 0, false
	}
	return e.ctx.State.Reg(r), true
}

// Drained implements issue.Engine.
func (e *Engine) Drained() bool { return e.inFlight == 0 }

// PendingTrap implements issue.Engine.
func (e *Engine) PendingTrap() *exec.Trap { return e.trap }

// Precise implements issue.Engine.
func (e *Engine) Precise() bool { return false }

// Flush implements issue.Engine.
func (e *Engine) Flush() {
	e.clear()
	e.ctx.Bus.Clear()
}

// InFlight implements issue.Engine.
func (e *Engine) InFlight() int { return e.inFlight }

// Retired implements issue.Engine.
func (e *Engine) Retired() int64 { return e.retired }
