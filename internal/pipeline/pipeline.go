// Package pipeline models the target's three-stage (fetch / decode /
// execute) Cortex-M0 pipeline with cycle accuracy, and maps clock-glitch
// events onto pipeline stages: a glitch during clock cycle N can corrupt the
// instruction word in the fetch stage (affecting the instruction that
// executes two issue slots later), corrupt the word latched into execute,
// corrupt the data bus of an in-flight load, suppress issue entirely, or
// flip bits in the register file.
//
// The paper (Section V) stresses that on a three-stage pipeline it is hard
// to attribute a glitch to a single instruction; this model reproduces that
// ambiguity: one glitched cycle can touch both the executing instruction and
// the one being prefetched.
package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"glitchlab/internal/emu"
	"glitchlab/internal/firmware"
	"glitchlab/internal/isa"
)

// EventKind selects which pipeline stage a glitch corrupts.
type EventKind uint8

// Event kinds.
const (
	EventNone         EventKind = iota
	EventFetchCorrupt           // corrupt the word in the fetch stage
	EventExecCorrupt            // corrupt the word latched into execute
	EventDataCorrupt            // corrupt the data bus of an in-flight load
	EventSkip                   // suppress issue (instruction becomes a bubble)
	EventRegCorrupt             // flip bits in the register file
	EventPCCorrupt              // corrupt the fetch address / program counter
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case EventNone:
		return "none"
	case EventFetchCorrupt:
		return "fetch-corrupt"
	case EventExecCorrupt:
		return "exec-corrupt"
	case EventDataCorrupt:
		return "data-corrupt"
	case EventSkip:
		return "skip"
	case EventRegCorrupt:
		return "reg-corrupt"
	case EventPCCorrupt:
		return "pc-corrupt"
	}
	return fmt.Sprintf("event%d", uint8(k))
}

// Event is one glitch-induced corruption.
type Event struct {
	Kind EventKind
	// InstMask is applied to the targeted instruction halfword: bits are
	// cleared (1→0, the dominant clock-glitch effect) unless InstSet.
	InstMask uint16
	InstSet  bool
	// DataMask is applied to a loaded data word or a register.
	DataMask uint32
	DataSet  bool
	// DataResidue replaces the loaded value outright with DataValue —
	// a short glitch makes the bus capture whatever residue is floating
	// on it rather than a bit-flipped version of the real value.
	DataResidue bool
	DataValue   uint32
	// Reg is the register file target for EventRegCorrupt (r0-r7).
	Reg isa.Reg
}

func (e Event) applyInst(hw uint16) uint16 {
	if e.InstSet {
		return hw | e.InstMask
	}
	return hw &^ e.InstMask
}

func (e Event) applyData(v uint32) uint32 {
	if e.DataResidue {
		return e.DataValue
	}
	if e.DataSet {
		return v | e.DataMask
	}
	return v &^ e.DataMask
}

// Injector supplies the glitch events for a run.
type Injector interface {
	// Event returns the corruption for clock cycle rel, counted from the
	// most recent trigger, in trigger window `window` (the trigger
	// occurrence index: 0 for the first trigger — multi-glitch
	// experiments see 0 and 1).
	Event(rel, window int) (Event, bool)
	// Last is the last relative cycle Event can fire on, in any window.
	// Once the current window is past it the machine stops consulting
	// the injector (and stops costing instructions ahead of execution).
	Last() int
}

// InjectorFunc adapts a closure to Injector. Its horizon is unknown, so
// the machine consults it on every cycle of every window.
type InjectorFunc func(rel, window int) (Event, bool)

// Event calls f.
func (f InjectorFunc) Event(rel, window int) (Event, bool) { return f(rel, window) }

// Last reports no horizon.
func (f InjectorFunc) Last() int { return math.MaxInt }

// StopReason describes how a run ended.
type StopReason uint8

// Stop reasons.
const (
	StopHit   StopReason = iota // reached a stop symbol
	StopHung                    // cycle budget exhausted (still looping)
	StopFault                   // hardware fault
)

// String returns the stop-reason name.
func (r StopReason) String() string {
	switch r {
	case StopHit:
		return "hit"
	case StopHung:
		return "hung"
	case StopFault:
		return "fault"
	}
	return fmt.Sprintf("reason%d", uint8(r))
}

// Result summarizes one run.
type Result struct {
	Reason StopReason
	Tag    string        // stop symbol name for StopHit
	Fault  emu.FaultKind // fault kind for StopFault
	Regs   [16]uint32    // post-mortem register file
	Cycles uint64
	Steps  uint64
}

// fetchAhead is the pipeline depth between fetch and execute: with three
// stages, the word being fetched during cycle N executes two issue slots
// after the instruction executing at N.
const fetchAhead = 2

// Machine drives a board cycle-accurately with optional glitch injection.
type Machine struct {
	Board  *firmware.Board
	Stops  map[uint32]string // address -> tag; run ends when PC reaches one
	Glitch Injector          // nil for clean runs

	// MaxSteps, when non-zero, bounds the run by retired instructions in
	// addition to Run's cycle budget, reporting StopHung once the count is
	// reached. Differential harnesses use it to cut a pipeline run and a
	// functional emu.CPU.Run at exactly the same instruction, so that even
	// hung executions can be compared register for register (a cycle
	// budget cannot do that: flash-programming stalls make the
	// cycles-per-instruction ratio program-dependent).
	MaxSteps uint64

	// Replay, when non-nil, accumulates the measured cost of the
	// glitch-window mapping work (peek + cycle-to-event dispatch) the
	// machine performs per issue slot inside an active trigger window.
	// One clock-read pair per timed slot: set it only on sampled
	// attempts (the phase profiler does) and subtract Ops multiplied by
	// the calibrated clock-read cost when attributing Ns.
	Replay *ReplayProf

	// LoopStop, when non-zero, is a loop-header address at which a run
	// resumed from a snapshot may end early as StopHung: see repeats for
	// the four conditions under which the machine provably loops forever.
	// Full runs from reset (Run) never stop early.
	LoopStop uint32

	// Quotient, when non-nil, is the image's seed-quotient fact: with it,
	// LoopStop may also compare two header visits modulo the seed word
	// and the registers the iteration between them leaves dead (see
	// repeats). Without it the comparison is exact.
	Quotient *SeedQuotient

	windowStart uint64 // cycle at which the active trigger window began
	windowIdx   int    // trigger occurrence index (-1 before first trigger)

	step         uint64
	pending      [ringSize]pendingStep // step-indexed corruptions, by step % ringSize
	curStepFetch bool                  // first fetch of the current step already seen
	curStep      uint64

	snap *Snapshot // snapshot the current run resumed from; nil for full runs
	loop loopMark  // last LoopStop visit, for repeats
	quot quotCheck // the iteration since the last LoopStop visit, under Quotient

	fetchHook func(addr uint32, hw uint16) uint16
	loadHook  func(addr uint32, size uint32, val uint32) uint32
}

// ringSize is the number of pending-corruption slots: a dispatch lands at
// most fetchAhead steps ahead, so fetchAhead+1 slots suffice; a power of
// two keeps the index a mask.
const ringSize = 4

// pendingStep holds the corruptions scheduled for one issue slot.
type pendingStep struct {
	inst, data       Event
	hasInst, hasData bool
	skip             bool
}

func (p *pendingStep) empty() bool { return !p.hasInst && !p.hasData && !p.skip }

// loopMark is the machine state at a LoopStop visit.
type loopMark struct {
	valid       bool
	regs        [16]uint32
	flags       isa.Flags
	triggers    int
	flashWrites int
	seed        uint32 // the seed word, when the images blank it
	hasMem      bool   // mem holds this visit's memory image
	mem         []byte // MemSnapshot.AppendDirty image
	scratch     []byte // reused buffer for the next image
}

// NewMachine wires a machine to a board.
func NewMachine(b *firmware.Board) *Machine {
	m := &Machine{
		Board:     b,
		Stops:     map[uint32]string{},
		windowIdx: -1,
	}
	b.OnTrigger = func(cycle uint64, count int) {
		// The store retires after this hook runs; the next instruction
		// begins at the store's completion cycle. The paper's triggers
		// fire one cycle before the targeted instruction, which is the
		// store's own final cycle — so the window starts at the cycle
		// following the hook's view of time plus the store cost.
		m.windowStart = b.CPU.Cycles + 2 // str is a 2-cycle instruction
		m.windowIdx = count - 1
	}
	m.fetchHook, m.loadHook = m.fetchOverride, m.loadOverride
	m.quot.exec = m.quotExec
	m.hook(true)
	return m
}

// AddStop registers a stop symbol.
func (m *Machine) AddStop(addr uint32, tag string) {
	m.Stops[addr] = tag
}

// AddStopSymbol registers a stop at a named program symbol.
func (m *Machine) AddStopSymbol(name string) {
	m.Stops[m.Board.MustSymbol(name)] = name
}

func (m *Machine) fetchOverride(addr uint32, hw uint16) uint16 {
	// Only the first halfword fetched in a step is the issue word.
	if m.curStepFetch {
		return hw
	}
	m.curStepFetch = true
	p := &m.pending[m.curStep%ringSize]
	if p.skip {
		return 0xbf00 // issue bubble: NOP
	}
	if p.hasInst {
		return p.inst.applyInst(hw)
	}
	return hw
}

func (m *Machine) loadOverride(addr uint32, size uint32, val uint32) uint32 {
	if p := &m.pending[m.curStep%ringSize]; p.hasData {
		p.hasData = false
		return p.data.applyData(val)
	}
	return val
}

// peek decodes the instruction at pc, applying any corruption already
// scheduled for the upcoming step, so that the cycle-cost estimate matches
// what will execute.
func (m *Machine) peek(pc uint32) (isa.Inst, bool) {
	cpu := m.Board.CPU
	r, ok := cpu.Mem.Region(pc, 2)
	if !ok || pc%2 != 0 {
		return isa.Inst{}, false
	}
	off := pc - r.Base
	hw := uint16(r.Data[off]) | uint16(r.Data[off+1])<<8
	if p := &m.pending[m.step%ringSize]; p.skip {
		hw = 0xbf00
	} else if p.hasInst {
		hw = p.inst.applyInst(hw)
	}
	var hw2 uint16
	if isa.Is32Bit(hw) {
		if r2, ok := cpu.Mem.Region(pc+2, 2); ok {
			o2 := pc + 2 - r2.Base
			hw2 = uint16(r2.Data[o2]) | uint16(r2.Data[o2+1])<<8
		}
	}
	return isa.Decode(hw, hw2), true
}

// ReplayProf accumulates the cost of the glitch-window mapping work: Ns
// is the measured wall time, Ops the number of timed issue slots (each
// carrying one clock-read pair of instrumentation overhead).
type ReplayProf struct {
	Ns  int64
	Ops uint64
}

// Run executes until a stop symbol, a fault, or the cycle budget.
func (m *Machine) Run(maxCycles uint64) Result {
	m.resetRun()
	return m.run(maxCycles)
}

// resetRun clears the per-run glitch-mapping state.
func (m *Machine) resetRun() {
	m.step = 0
	m.windowIdx = -1
	m.windowStart = 0
	m.pending = [ringSize]pendingStep{}
	m.snap = nil
	m.loop.valid = false
	m.disarm()
}

// run is the machine's main loop, continuing from the current machine and
// board state (Run and RunFrom both funnel into it).
func (m *Machine) run(maxCycles uint64) Result {
	cpu := m.Board.CPU
	// last is the injector's horizon: past it, in the current window,
	// nothing can fire, and the per-slot peek/cost/injector work is
	// skipped (the fast tail).
	last := int64(math.MinInt64)
	if m.Glitch != nil {
		last = int64(m.Glitch.Last())
	}
	loopStop := m.LoopStop
	if m.snap == nil {
		loopStop = 0
	}
	m.loop.valid = false
	m.quot.on = loopStop != 0 && m.quotientApplies(loopStop)
	// watch filters the addresses that need a closer look — stop
	// symbols and the loop header — by one bit test per step.
	var watch [stopFilterWords]uint64
	for addr := range m.Stops {
		watchAdd(&watch, addr)
	}
	if loopStop != 0 {
		watchAdd(&watch, loopStop)
	}
	// The pipeline hooks are the identity while no corruption is pending,
	// so the tail runs without them.
	m.hook(true)
	hooked := true

	for {
		pc := cpu.PC()
		if h := pc >> 1 & (stopFilterWords*64 - 1); watch[h>>6]&(1<<(h&63)) != 0 {
			if tag, ok := m.Stops[pc]; ok {
				return m.result(StopHit, tag, 0)
			}
			if pc == loopStop && cpu.Cycles < maxCycles && m.repeats(last) {
				return m.result(StopHung, "", 0)
			}
		}
		if cpu.Cycles >= maxCycles {
			return m.result(StopHung, "", 0)
		}
		if m.MaxSteps > 0 && cpu.Steps >= m.MaxSteps {
			return m.result(StopHung, "", 0)
		}

		// Map glitched cycles in this instruction's execute window to
		// pipeline effects.
		if m.windowIdx >= 0 && int64(cpu.Cycles)-int64(m.windowStart) <= last {
			if !hooked {
				m.hook(true)
				hooked = true
			}
			var t0 time.Time
			if m.Replay != nil {
				t0 = time.Now()
			}
			if in, ok := m.peek(pc); ok {
				cost := cpu.CostOf(in)
				start := cpu.Cycles
				for c := 0; c < cost; c++ {
					rel := int(int64(start) + int64(c) - int64(m.windowStart))
					if rel < 0 {
						continue
					}
					ev, hit := m.Glitch.Event(rel, m.windowIdx)
					if !hit {
						continue
					}
					m.dispatch(ev)
				}
			}
			if m.Replay != nil {
				m.Replay.Ns += time.Since(t0).Nanoseconds()
				m.Replay.Ops++
			}
		} else if hooked && m.quiet() {
			m.hook(false)
			hooked = false
		}

		m.curStep = m.step
		m.curStepFetch = false
		_, err := cpu.Step()
		if hooked {
			p := &m.pending[m.step%ringSize]
			p.hasInst, p.hasData, p.skip = false, false, false
		}
		m.step++
		if err != nil {
			var fault *emu.Fault
			if errors.As(err, &fault) {
				return m.result(StopFault, "", fault.Kind)
			}
			return m.result(StopFault, "", emu.FaultNone)
		}
	}
}

// stopFilterWords sizes run's address filter: 1024 bits, indexed by
// halfword address.
const stopFilterWords = 16

func watchAdd(w *[stopFilterWords]uint64, addr uint32) {
	h := addr >> 1 & (stopFilterWords*64 - 1)
	w[h>>6] |= 1 << (h & 63)
}

// hook installs (or removes) the fetch and load overrides on the CPU.
func (m *Machine) hook(on bool) {
	h := &m.Board.CPU.Hooks
	if on {
		h.FetchOverride, h.LoadOverride = m.fetchHook, m.loadHook
	} else {
		h.FetchOverride, h.LoadOverride = nil, nil
	}
}

// quiet reports that no step-indexed corruption is pending.
func (m *Machine) quiet() bool {
	for i := range m.pending {
		if !m.pending[i].empty() {
			return false
		}
	}
	return true
}

func (m *Machine) dispatch(ev Event) {
	switch ev.Kind {
	case EventFetchCorrupt:
		// The word in the fetch stage belongs to the instruction two
		// issue slots ahead.
		if p := &m.pending[(m.step+fetchAhead)%ringSize]; !p.hasInst {
			p.inst, p.hasInst = ev, true
		}
	case EventExecCorrupt:
		if p := &m.pending[m.step%ringSize]; !p.hasInst {
			p.inst, p.hasInst = ev, true
		}
	case EventDataCorrupt:
		p := &m.pending[m.step%ringSize]
		p.data, p.hasData = ev, true
	case EventSkip:
		m.pending[m.step%ringSize].skip = true
	case EventRegCorrupt:
		r := ev.Reg & 7
		m.Board.CPU.R[r] = ev.applyData(m.Board.CPU.R[r])
	case EventPCCorrupt:
		pc := m.Board.CPU.R[isa.PC]
		m.Board.CPU.R[isa.PC] = ev.applyData(pc) &^ 1
	}
}

// repeats reports, at a LoopStop visit, whether the machine provably loops
// forever from here. It does when four things hold since the previous
// visit: the current window is past the injector's horizon last, so no
// event can fire again; no step-indexed corruption is pending; no trigger
// or flash write happened in between; and registers, flags and every
// writable byte are equal. The machine is then a pure function of that
// state, which recurs every iteration: no stop symbol, fault or trigger
// was met in one iteration, so none ever will be, and the run can only
// end StopHung at its budget. Registers pick the candidate visit; memory
// equality is checked in full, through the dirty pages of the snapshot
// the run resumed from.
//
// Under a Quotient, the seed word and the registers the iteration since
// the previous visit left dead may differ as well, provided that
// iteration, watched by quotExec, kept the seed out of everything else
// (see quotCheck) and the run has made no flash store since the
// snapshot. Every later iteration then replays the watched one with only
// the delay routine's count changed. When the watch failed the
// comparison is exact, the seed word included.
func (m *Machine) repeats(last int64) bool {
	cpu, b, l := m.Board.CPU, m.Board, &m.loop
	if m.windowIdx < 0 || int64(cpu.Cycles)-int64(m.windowStart) <= last || !m.quiet() {
		l.valid = false
		m.disarm()
		return false
	}
	if l.valid && l.flags == cpu.Flags &&
		l.triggers == b.TriggerCount && l.flashWrites == b.FlashWrites && m.regsRepeat() {
		l.scratch = m.appendImage(l.scratch[:0])
		if l.hasMem && bytes.Equal(l.scratch, l.mem) {
			m.disarm()
			return true
		}
		l.mem, l.scratch = l.scratch, l.mem
		l.hasMem = true
	} else if m.quot.on {
		// Under a Quotient the registers rarely repeat exactly, so every
		// visit is a candidate: image it now to compare at the next one.
		l.mem = m.appendImage(l.mem[:0])
		l.hasMem = true
	} else {
		l.hasMem = false
	}
	l.valid = true
	l.regs, l.flags = cpu.R, cpu.Flags
	l.triggers, l.flashWrites = b.TriggerCount, b.FlashWrites
	if m.quot.on {
		l.seed, _ = m.Board.Mem.ReadWord(m.Quotient.Seed)
		m.arm()
	}
	return false
}

// regsRepeat compares the registers at this LoopStop visit with the
// marked visit's: exactly, or modulo the dead registers when the watched
// iteration kept the seed contained.
func (m *Machine) regsRepeat() bool {
	cpu, l, c := m.Board.CPU, &m.loop, &m.quot
	if !c.armed || c.bad {
		if !c.on {
			return l.regs == cpu.R
		}
		seed, _ := m.Board.Mem.ReadWord(m.Quotient.Seed)
		return l.regs == cpu.R && l.seed == seed
	}
	// Seed-dependent registers must be dead at the header, like every
	// register that differs.
	if c.tainted&c.live != 0 {
		return false
	}
	for r := range cpu.R {
		if l.regs[r] != cpu.R[r] && c.live&(1<<r) != 0 {
			return false
		}
	}
	return true
}

// appendImage appends the dirty-page memory image for repeats, with the
// seed word blanked when a Quotient applies (regsRepeat compares the seed
// separately whenever the comparison is exact).
func (m *Machine) appendImage(dst []byte) []byte {
	if !m.quot.on {
		return m.snap.mem.AppendDirty(dst)
	}
	r, _ := m.Board.Mem.Region(m.Quotient.Seed, 4)
	w := r.Data[m.Quotient.Seed-r.Base:][:4]
	saved := [4]byte(w)
	clear(w)
	dst = m.snap.mem.AppendDirty(dst)
	copy(w, saved[:])
	return dst
}

// SeedQuotient is a static fact about a firmware image's seed-advancing
// delay routine; internal/analyze derives it (analyze.DelayQuotient).
// Executed from Entry with any value in the seed word and any register
// values, the routine does not fault, leaves [Entry, End) only by
// returning to the lr it was entered with, and stores nothing but the
// seed word. Before writing them it reads only the registers in Reads. On
// return, the registers in Clean and the flags hold the same values
// whatever the seed, the registers in Tainted may depend on it, and every
// other register is unchanged. The seed changes only how many cycles the
// routine takes.
type SeedQuotient struct {
	Seed       uint32 // RAM address of the seed word
	Entry, End uint32 // the routine's code range
	Reads      uint16 // registers read before written (bit r: register r)
	Clean      uint16 // registers overwritten with seed-independent values
	Tainted    uint16 // registers left holding seed-dependent values
}

// quotCheck watches one loop iteration, from a LoopStop visit to the
// next, through the CPU's OnExec hook, which is installed only for that
// iteration. It records the registers the iteration reads before writing
// them (live: every other register is dead at the header, its value
// there never used) and which registers hold seed-dependent values. It
// fails the iteration (bad) if the seed could have reached anything but
// the delay routine's cycle count: a seed-dependent register read outside
// the routine, an instruction outside it fetching, loading or storing any
// byte of the seed word, the routine entered anywhere but at its entry,
// or entered with a seed-dependent lr. Nothing here assumes the glitched
// program follows its static control flow: the check is over the
// instructions actually executed.
type quotCheck struct {
	on      bool // Quotient applies to this run
	armed   bool // the hook is installed
	bad     bool
	inDelay bool   // executing the delay routine
	ret     uint32 // the routine's return address
	live    uint16 // registers read before written since the mark
	written uint16
	tainted uint16 // registers holding seed-dependent values
	exec    func(addr uint32, in isa.Inst)
	prev    func(addr uint32, in isa.Inst) // the OnExec hook arm replaced
}

// quotientApplies reports whether the Quotient can serve a run stopping
// at loop header loopStop: the seed word is mapped, and the delay routine
// holds neither the header nor a stop symbol.
func (m *Machine) quotientApplies(loopStop uint32) bool {
	q := m.Quotient
	if q == nil {
		return false
	}
	if _, ok := m.Board.Mem.Region(q.Seed, 4); !ok {
		return false
	}
	in := func(a uint32) bool { return a >= q.Entry && a < q.End }
	if in(loopStop) {
		return false
	}
	for a := range m.Stops {
		if in(a) {
			return false
		}
	}
	return true
}

// arm starts watching the iteration that begins at this LoopStop visit.
// A run that has made a flash store since the snapshot is not watched:
// the store may have rewritten the code the Quotient describes.
func (m *Machine) arm() {
	c := &m.quot
	if m.Board.FlashWrites != m.snap.flashWrites {
		m.disarm()
		return
	}
	h := &m.Board.CPU.Hooks
	if !c.armed {
		c.prev, h.OnExec = h.OnExec, c.exec
		c.armed = true
	}
	c.bad, c.inDelay = false, false
	c.live, c.written, c.tainted = 0, 0, 0
}

// disarm removes the iteration watch, if installed.
func (m *Machine) disarm() {
	c := &m.quot
	if c.armed {
		m.Board.CPU.Hooks.OnExec = c.prev
		c.armed, c.prev = false, nil
	}
}

// quotExec is quotCheck's OnExec hook. It chains to the hook it replaced.
func (m *Machine) quotExec(pc uint32, in isa.Inst) {
	c, q, cpu := &m.quot, m.Quotient, m.Board.CPU
	if c.prev != nil {
		c.prev(pc, in)
	}
	if c.bad {
		return
	}
	inDelay := pc >= q.Entry && pc < q.End
	if c.inDelay {
		if inDelay {
			return
		}
		c.inDelay = false
		if pc != c.ret {
			c.bad = true
			return
		}
	}
	if inDelay {
		// The fact summarizes the whole call.
		c.ret = cpu.R[isa.LR] &^ 1
		if pc != q.Entry || c.ret >= q.Entry && c.ret < q.End {
			c.bad = true
			return
		}
		c.read(q.Reads)
		c.write(q.Clean | q.Tainted)
		c.tainted |= q.Tainted
		c.inDelay = true
		return
	}
	reads, writes := in.RegUse()
	c.read(reads)
	addr, n := cpu.Footprint(pc, in)
	if overlaps(pc, uint32(in.Size), q.Seed, 4) || n > 0 && overlaps(addr, n, q.Seed, 4) {
		c.bad = true
	}
	c.write(writes)
}

func (c *quotCheck) read(regs uint16) {
	regs &^= 1 << isa.PC
	if regs&c.tainted != 0 {
		c.bad = true
	}
	c.live |= regs &^ c.written
}

func (c *quotCheck) write(regs uint16) {
	c.written |= regs
	c.tainted &^= regs
}

// overlaps reports whether [a, a+n) and [b, b+m) share a byte.
func overlaps(a, n, b, m uint32) bool {
	return uint64(a) < uint64(b)+uint64(m) && uint64(b) < uint64(a)+uint64(n)
}

// Snapshot is a restorable capture of a machine, its CPU and its board at
// the trigger point, letting a glitch campaign replay only the post-trigger
// window instead of re-simulating the whole boot prologue per attempt.
type Snapshot struct {
	cpu         emu.CPUState
	mem         *emu.MemSnapshot
	step        uint64
	windowStart uint64
	windowIdx   int
	trigCount   int
	trigCycle   uint64
	flashWrites int
}

// SnapshotAtTrigger resets the board and runs — glitch-free — until the
// first trigger write retires, then captures a Snapshot at exactly that
// point. The capture sits at relative cycle 0 of the glitch window: the
// trigger hook sets windowStart to the trigger store's completion cycle, so
// no injector event can apply to any cycle before the snapshot (the glitch
// mapping is gated on a non-negative window index, which only the trigger
// itself establishes). The prologue is therefore injector-independent and
// RunFrom(s, ...) is byte-identical to a full Run with the same injector.
//
// It returns nil if the run stops, faults or exhausts its budgets before
// any trigger fires; callers fall back to full runs in that case.
//
// The snapshot's memory capture arms dirty-page tracking on the board's
// writable regions; from then on the board must only be re-run through
// RestoreSnapshot/RunFrom. A Board.Reset would repaint SRAM outside the
// CPU store path, invisibly to the tracking, and stale data would survive
// the next restore.
func (m *Machine) SnapshotAtTrigger(maxCycles uint64) *Snapshot {
	m.Board.Reset()
	m.resetRun()
	cpu := m.Board.CPU
	for m.windowIdx < 0 {
		if _, ok := m.Stops[cpu.PC()]; ok {
			return nil
		}
		if cpu.Cycles >= maxCycles {
			return nil
		}
		if m.MaxSteps > 0 && cpu.Steps >= m.MaxSteps {
			return nil
		}
		m.curStep = m.step
		m.curStepFetch = false
		if _, err := cpu.Step(); err != nil {
			return nil
		}
		m.step++
	}
	m.snap = &Snapshot{
		cpu:         cpu.State(),
		mem:         m.Board.Mem.Snapshot(),
		step:        m.step,
		windowStart: m.windowStart,
		windowIdx:   m.windowIdx,
		trigCount:   m.Board.TriggerCount,
		trigCycle:   m.Board.TriggerCycle,
		flashWrites: m.Board.FlashWrites,
	}
	return m.snap
}

// Steps reports how many instructions had retired at the snapshot point;
// profilers subtract it from a replayed run's total to count only the
// instructions the replay itself executed.
func (s *Snapshot) Steps() uint64 { return s.cpu.Steps }

// RestoreSnapshot rewinds the machine, CPU, memory and board trigger
// bookkeeping to the captured trigger point.
func (m *Machine) RestoreSnapshot(s *Snapshot) {
	m.resetRun()
	m.snap = s
	m.step = s.step
	m.windowStart = s.windowStart
	m.windowIdx = s.windowIdx
	m.Board.CPU.SetState(s.cpu)
	s.mem.Restore()
	m.Board.TriggerCount = s.trigCount
	m.Board.TriggerCycle = s.trigCycle
	m.Board.FlashWrites = s.flashWrites
}

// Resume continues execution from the machine's current (restored) state.
func (m *Machine) Resume(maxCycles uint64) Result {
	return m.run(maxCycles)
}

// RunFrom restores a snapshot and runs to completion. maxCycles is the
// same absolute cycle budget a full Run would get; the cycles already spent
// reaching the snapshot count against it, so results match a full run.
func (m *Machine) RunFrom(s *Snapshot, maxCycles uint64) Result {
	m.RestoreSnapshot(s)
	return m.run(maxCycles)
}

func (m *Machine) result(reason StopReason, tag string, fault emu.FaultKind) Result {
	m.hook(true)
	m.disarm()
	cpu := m.Board.CPU
	return Result{
		Reason: reason,
		Tag:    tag,
		Fault:  fault,
		Regs:   cpu.R,
		Cycles: cpu.Cycles,
		Steps:  cpu.Steps,
	}
}
