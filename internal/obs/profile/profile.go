// Package profile attributes the cost of the campaign/scan hot path to
// execution phases. The paper's Figure 2 campaign retires ~96k mutated
// executions per run and ROADMAP item 2 targets a >=5x win on that path —
// but a win has to be scoped before it can be engineered, and a full
// tracer on a ~500 ns execution would cost more than the execution.
//
// The design follows the same batched-shard discipline that holds the
// observability layer's <5% overhead contract (see obs.HistShard): every
// execution pays one plain-field increment and compare to decide whether
// it is sampled; roughly one in every Sample executions (the cadence is
// jittered — see Shard.Sample — so a fixed stride cannot alias with
// periodic workload structure) is timed phase by phase with monotonic
// clock reads, and the nanosecond totals accumulate in per-worker shards
// that merge into the shared Profile with atomic adds at flush
// boundaries. The per-phase report extrapolates the sampled costs over
// the full execution count and checks itself against the measured wall
// clock (Report.CoveragePct), so a phase breakdown that lost track of
// where the time went is visible as such. The extrapolation is a
// median of means over interleaved sample blocks (see Report), so one
// sample the OS preempted for milliseconds cannot multiply into the
// estimate.
//
// Calibrations keep the sampled numbers honest:
//
//   - clock-read cost: each phase mark includes one monotonic clock read
//     (~20-40 ns on this class of host, a third of a whole execution's
//     decode budget). New measures the minimum observed back-to-back
//     read cost and every mark subtracts it, so phase totals converge on
//     the true cost instead of the cost plus the profiler's.
//   - decode unit cost: isa.Decode is a single table load for 16-bit
//     encodings (a few ns per instruction), far below the clock-read
//     floor, so timing it in the emulator's step loop would measure the
//     timer — and cost the hot path a branch per retired instruction.
//     Calibration is therefore entirely out-of-band: New times a full
//     2^16-encoding decode sweep (min of several rounds) and the decode
//     phase is attributed as unit-cost x instructions retired by the run
//     being profiled, capped by the measured execute time it is split
//     from. The package tests re-validate the unit cost against an
//     independently timed sweep.
//   - replay-pair cost: pipeline.ReplayProf times each glitch-window
//     issue slot with a time.Now/time.Since pair, which costs more than
//     two bare monotonic reads; New calibrates the pair so callers can
//     Discount the instrumentation out of the enclosing execute mark.
package profile

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"glitchlab/internal/isa"
	"glitchlab/internal/lcg"
)

// Phase is one slice of a mutated execution's cost.
type Phase uint8

// Phases in hot-path order. Assemble covers preparing the perturbed
// image and resetting machine state; Decode is the instruction-decode
// share split out of Execute; Replay is the glitch-window mapping work
// the pipeline model performs per issue slot (trigger-relative cycle
// replay); Execute is the remaining emulation; Classify is outcome
// classification.
const (
	PhaseAssemble Phase = iota
	PhaseDecode
	PhaseReplay
	PhaseExecute
	PhaseClassify
	numPhases
)

// NumPhases is the number of attribution phases.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{
	"assemble", "decode", "trigger-replay", "execute", "classify",
}

// String returns the phase's report name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase%d", uint8(p))
}

// DefaultSample is the default sampling interval: one fully-timed
// execution in every 64. At ~500 ns per execution and ~4 clock reads per
// sampled one, the amortized cost is a few nanoseconds per execution —
// well inside the observability layer's <5% overhead contract.
const DefaultSample = 64

// nsBuckets is the number of power-of-two duration buckets per phase
// (1 ns .. ~0.5 ms; longer marks land in the last bucket).
const nsBuckets = 20

// Profile is the shared attribution sink for one campaign or scan run.
// The hot path never touches it directly: workers record into Shards and
// merge with Flush. All Profile methods are safe for concurrent use and
// nil-safe, so instrumentation can call unconditionally.
type Profile struct {
	every   uint64
	clockNs int64 // calibrated cost of one monotonic clock read
	decNs   int64 // calibrated isa.Decode unit cost (per instruction)
	pairNs  int64 // calibrated cost of one time.Now/time.Since pair

	execs   atomic.Uint64
	samples atomic.Uint64
	ns      [NumPhases]atomic.Int64
	buckets [NumPhases][nsBuckets]atomic.Uint64

	mu     sync.Mutex
	blocks [medianBlocks]phaseBlock // the shards' flushed blocks, summed

	wallNs atomic.Int64
	begun  atomic.Int64 // monotonic ns at Begin; 0 when not running

	shardSeq atomic.Uint32 // seeds each shard's sampling-jitter stream

	clock func() int64 // monotonic nanoseconds; replaced by tests
}

// New builds a profile sampling one execution in every `every` (<= 0
// uses DefaultSample). It calibrates the clock-read and decode unit
// costs once, which takes a few milliseconds.
func New(every int) *Profile {
	if every <= 0 {
		every = DefaultSample
	}
	p := &Profile{every: uint64(every), clock: monotonicNs}
	p.clockNs = calibrateClock()
	p.decNs = calibrateDecode()
	p.pairNs = calibratePair()
	return p
}

// monotonicNs reads the monotonic clock in nanoseconds.
func monotonicNs() int64 { return time.Since(baseline).Nanoseconds() }

var baseline = time.Now()

// calibrateClock measures the minimum observed cost of one back-to-back
// monotonic clock read. The minimum (not the mean) is the right
// estimator on a shared host: contention only ever inflates a sample.
func calibrateClock() int64 {
	best := int64(1 << 62)
	for round := 0; round < 8; round++ {
		const reads = 512
		start := monotonicNs()
		var last int64
		for i := 0; i < reads; i++ {
			last = monotonicNs()
		}
		if d := (last - start) / reads; d < best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// calibratePair measures the minimum cost of one time.Now/time.Since
// pair — the exact instrumentation pipeline.ReplayProf inserts per timed
// issue slot. time.Now reads both wall and monotonic clocks, so the
// pair costs more than two bare monotonic reads.
func calibratePair() int64 {
	best := int64(1 << 62)
	var sink int64
	for round := 0; round < 8; round++ {
		const pairs = 256
		start := monotonicNs()
		for i := 0; i < pairs; i++ {
			t0 := time.Now()
			sink += time.Since(t0).Nanoseconds()
		}
		if d := (monotonicNs() - start) / pairs; d < best {
			best = d
		}
	}
	if sink < 0 || best < 0 { // sink keeps the loop from being elided
		best = 0
	}
	return best
}

// calibrateDecode measures the per-instruction cost of isa.Decode by
// sweeping the full 16-bit encoding space, min of several rounds.
func calibrateDecode() int64 {
	best := int64(1 << 62)
	sink := 0
	for round := 0; round < 3; round++ {
		start := monotonicNs()
		for hw := 0; hw < 0x10000; hw++ {
			in := isa.Decode(uint16(hw), 0)
			sink += int(in.Size)
		}
		if d := (monotonicNs() - start) / 0x10000; d < best {
			best = d
		}
	}
	if sink == 0 || best < 0 { // sink keeps the sweep from being elided
		best = 0
	}
	return best
}

// SetClock replaces the monotonic time source (tests use a stepped fake)
// and zeroes the calibrations so fake-clocked marks are not "corrected"
// by real-host numbers.
func (p *Profile) SetClock(clock func() int64) {
	if p == nil {
		return
	}
	p.clock = clock
	p.clockNs = 0
}

// ClockOverheadNs returns the calibrated cost of one clock read.
func (p *Profile) ClockOverheadNs() int64 {
	if p == nil {
		return 0
	}
	return p.clockNs
}

// DecodeUnitNs returns the calibrated per-instruction decode cost.
func (p *Profile) DecodeUnitNs() int64 {
	if p == nil {
		return 0
	}
	return p.decNs
}

// Begin opens a wall-clock bracket; End accumulates it. Brackets from
// several runs (e.g. glitchemu's four Figure 2 variants) sum, so the
// coverage check spans exactly the instrumented work.
func (p *Profile) Begin() {
	if p == nil {
		return
	}
	p.begun.Store(p.clock())
}

// End closes the bracket opened by Begin.
func (p *Profile) End() {
	if p == nil {
		return
	}
	if t0 := p.begun.Swap(0); t0 != 0 {
		p.wallNs.Add(p.clock() - t0)
	}
}

// Shard returns a single-goroutine accumulation buffer recording into p,
// or nil when p is nil (keeping the bare hot path bare). Give each
// campaign/scan worker its own shard and Flush it before reading the
// report.
func (p *Profile) Shard() *Shard {
	if p == nil {
		return nil
	}
	s := &Shard{p: p, every: p.every}
	// Decorrelate the shards' jitter streams (Weyl-style seed spacing);
	// a fresh Profile always deals the same seeds, so reports stay
	// deterministic for a fixed work split.
	s.rng.Seed(p.shardSeq.Add(1) * 0x9e3779b9)
	s.next = s.gap()
	s.blk = &s.blocks[0]
	return s
}

// Shard buffers one worker's attribution at plain-memory cost. Not safe
// for concurrent use. A nil *Shard is valid and disables everything.
type Shard struct {
	p     *Profile
	every uint64
	next  uint64 // execution index of the next sample
	rng   lcg.LCG

	execs   uint64
	samples uint64
	ns      [NumPhases]int64
	buckets [NumPhases][nsBuckets]uint64

	seq    uint64                   // samples taken over the shard's life
	blk    *phaseBlock              // the current sample's block
	blocks [medianBlocks]phaseBlock // not yet flushed
}

// medianBlocks is the number of blocks Report takes the median over. A
// shard deals its samples round-robin into the blocks, so each block
// spreads evenly over the whole run and its mean estimates the run's
// mean, even when the cost per execution drifts from one work unit to
// the next (time-contiguous blocks would each see one region of the
// workload, and their median would pick the cheap one). Each outlier
// sample spoils one block, so the median holds while fewer than half of
// them are hit; a run sees a few to a dozen slow samples (preemption,
// GC), hence 64.
const medianBlocks = 64

// phaseBlock holds one block's sample count and phase totals.
type phaseBlock struct {
	n  uint64
	ns [NumPhases]int64
}

// Sample accounts one execution and reports whether this one should be
// timed phase by phase. The unsampled path is one increment and one
// compare — the whole per-execution cost of an attached profiler.
//
// The cadence is jittered, not a fixed stride: gaps are drawn uniformly
// from [1, 2*every-1] (mean every, so the nominal 1-in-every rate
// holds), because a fixed every-N stride aliases with periodic structure
// in the workload — a scan's grid walk would sample the same grid column
// every time and extrapolate its cost over the whole run.
func (s *Shard) Sample() bool {
	if s == nil {
		return false
	}
	s.execs++
	if s.execs < s.next {
		return false
	}
	s.samples++
	s.next = s.execs + s.gap()
	s.blk = &s.blocks[s.seq%medianBlocks]
	s.blk.n++
	s.seq++
	return true
}

// gap draws the next sampling gap, uniform in [1, 2*every-1].
func (s *Shard) gap() uint64 {
	if s.every <= 1 {
		return 1
	}
	return 1 + uint64(s.rng.Next())%(2*s.every-1)
}

// Timer marks phase boundaries of one sampled execution. The zero value
// is inert; obtain one from Shard.Start.
type Timer struct {
	s    *Shard
	last int64
}

// Start opens a phase timer at the current instant. Safe on a nil shard
// (returns an inert timer).
func (s *Shard) Start() Timer {
	if s == nil {
		return Timer{}
	}
	return Timer{s: s, last: s.p.clock()}
}

// Mark closes the current phase, attributing the time since the previous
// mark (or Start) minus the calibrated clock-read cost, and returns the
// attributed nanoseconds.
func (t *Timer) Mark(phase Phase) int64 {
	if t.s == nil {
		return 0
	}
	now := t.s.p.clock()
	d := now - t.last - t.s.p.clockNs
	if d < 0 {
		d = 0
	}
	t.last = now
	t.s.observe(phase, d)
	return d
}

// observe adds d nanoseconds to a phase total and its duration bucket.
func (s *Shard) observe(phase Phase, d int64) {
	s.ns[phase] += d
	s.blk.ns[phase] += d
	i := 0
	if d > 1 {
		i = bits.Len64(uint64(d - 1))
	}
	if i >= nsBuckets {
		i = nsBuckets - 1
	}
	s.buckets[phase][i]++
}

// Split re-attributes up to ns nanoseconds from one phase to another,
// capped at cap (pass the measured duration of the donor mark so a
// calibrated estimate can never move more time than was observed). It
// returns the amount moved. Campaign executions use it to split the
// decode share out of the execute mark; scans use it for the pipeline's
// trigger-replay share.
func (s *Shard) Split(from, to Phase, ns, max int64) int64 {
	if s == nil || ns <= 0 {
		return 0
	}
	if ns > max {
		ns = max
	}
	if ns <= 0 {
		return 0
	}
	s.ns[from] -= ns
	s.ns[to] += ns
	s.blk.ns[from] -= ns
	s.blk.ns[to] += ns
	return ns
}

// Discount removes up to max nanoseconds of known instrumentation
// overhead from a phase's accumulated time — e.g. the per-slot
// clock-read pairs that a sampled attempt's replay measurement inserts
// into the enclosing execute mark. Returns the nanoseconds removed.
func (s *Shard) Discount(phase Phase, ns, max int64) int64 {
	if s == nil || ns <= 0 {
		return 0
	}
	if ns > max {
		ns = max
	}
	if ns > s.ns[phase] {
		ns = s.ns[phase]
	}
	if ns <= 0 {
		return 0
	}
	s.ns[phase] -= ns
	s.blk.ns[phase] -= ns
	return ns
}

// DecodeEst returns the calibrated decode cost of `steps` retired
// instructions.
func (s *Shard) DecodeEst(steps uint64) int64 {
	if s == nil {
		return 0
	}
	return s.p.decNs * int64(steps)
}

// ClockOverheadNs returns the parent profile's calibrated clock-read
// cost (nil-safe), for callers correcting their own sub-measurements.
func (s *Shard) ClockOverheadNs() int64 {
	if s == nil {
		return 0
	}
	return s.p.clockNs
}

// PairOverheadNs returns the parent profile's calibrated cost of one
// time.Now/time.Since pair — the instrumentation overhead a
// pipeline.ReplayProf-timed issue slot adds to its enclosing mark.
func (s *Shard) PairOverheadNs() int64 {
	if s == nil {
		return 0
	}
	return s.p.pairNs
}

// Flush merges the shard into its profile and resets it.
func (s *Shard) Flush() {
	if s == nil || s.execs == 0 {
		return
	}
	s.p.execs.Add(s.execs)
	if s.next > s.execs {
		s.next -= s.execs // rebase the next-sample index with the counter
	} else {
		s.next = 0
	}
	s.execs = 0
	if s.samples != 0 {
		s.p.samples.Add(s.samples)
		s.samples = 0
	}
	s.p.mu.Lock()
	for i := range s.blocks {
		b, sb := &s.p.blocks[i], &s.blocks[i]
		b.n += sb.n
		for ph := range sb.ns {
			b.ns[ph] += sb.ns[ph]
		}
		*sb = phaseBlock{}
	}
	s.p.mu.Unlock()
	for ph := 0; ph < NumPhases; ph++ {
		if s.ns[ph] != 0 {
			s.p.ns[ph].Add(s.ns[ph])
			s.ns[ph] = 0
		}
		for b, n := range s.buckets[ph] {
			if n != 0 {
				s.p.buckets[ph][b].Add(n)
				s.buckets[ph][b] = 0
			}
		}
	}
}

// PhaseReport is one phase's share of the attribution report.
type PhaseReport struct {
	Phase     string   `json:"phase"`
	SampledNs int64    `json:"sampled_ns"` // measured across sampled executions
	SharePct  float64  `json:"share_pct"`  // of the sampled total
	EstNs     int64    `json:"est_ns"`     // extrapolated over every execution
	Buckets   []uint64 `json:"buckets_pow2_ns,omitempty"`
}

// Report is the rendered attribution of one profiled run.
type Report struct {
	Execs       uint64        `json:"execs"`
	Sampled     uint64        `json:"sampled"`
	SampleEvery uint64        `json:"sample_every"`
	WallNs      int64         `json:"wall_ns"`
	EstTotalNs  int64         `json:"est_total_ns"`
	CoveragePct float64       `json:"coverage_pct"` // est_total / wall
	ClockNs     int64         `json:"clock_overhead_ns"`
	DecodeNs    int64         `json:"decode_unit_ns"`
	Phases      []PhaseReport `json:"phases"`
}

// Report extrapolates the sampled phase costs over the full execution
// count and compares them to the measured wall clock. Flush every shard
// first. Safe on a nil profile (returns a zero report).
//
// A phase's estimate is the median, over medianBlocks interleaved sample
// blocks, of the block's mean phase cost, times the execution count. A
// plain mean (sampled total x execs/samples) lets one sample the OS
// preempted or a GC pause stalled, milliseconds against thousands of
// sub-microsecond samples, move the estimate by tens of percent; the
// block mean absorbs it and the median discards that block. The plain
// mean remains the estimate while a block is empty, and when every
// execution is sampled, where nothing is extrapolated.
func (p *Profile) Report() Report {
	if p == nil {
		return Report{}
	}
	r := Report{
		Execs:       p.execs.Load(),
		SampleEvery: p.every,
		WallNs:      p.wallNs.Load(),
		ClockNs:     p.clockNs,
		DecodeNs:    p.decNs,
	}
	sampled := p.samples.Load()
	r.Sampled = sampled

	var totalNs int64
	phaseNs := [NumPhases]int64{}
	for ph := 0; ph < NumPhases; ph++ {
		phaseNs[ph] = p.ns[ph].Load()
		totalNs += phaseNs[ph]
	}
	scale := 0.0
	if sampled > 0 {
		scale = float64(r.Execs) / float64(sampled)
	}
	p.mu.Lock()
	blocks := p.blocks
	p.mu.Unlock()
	robust := scale > 1
	for _, b := range blocks {
		robust = robust && b.n > 0
	}
	var means [medianBlocks]float64
	for ph := 0; ph < NumPhases; ph++ {
		pr := PhaseReport{
			Phase:     Phase(ph).String(),
			SampledNs: phaseNs[ph],
			EstNs:     int64(float64(phaseNs[ph]) * scale),
		}
		if robust {
			for i, b := range blocks {
				means[i] = float64(b.ns[ph]) / float64(b.n)
			}
			slices.Sort(means[:])
			mid := (means[medianBlocks/2-1] + means[medianBlocks/2]) / 2
			pr.EstNs = int64(mid * float64(r.Execs))
		}
		if totalNs > 0 {
			pr.SharePct = 100 * float64(phaseNs[ph]) / float64(totalNs)
		}
		for b := 0; b < nsBuckets; b++ {
			if n := p.buckets[ph][b].Load(); n != 0 {
				bs := make([]uint64, nsBuckets)
				for i := 0; i < nsBuckets; i++ {
					bs[i] = p.buckets[ph][i].Load()
				}
				pr.Buckets = bs
				break
			}
		}
		r.EstTotalNs += pr.EstNs
		r.Phases = append(r.Phases, pr)
	}
	if r.WallNs > 0 {
		r.CoveragePct = 100 * float64(r.EstTotalNs) / float64(r.WallNs)
	}
	return r
}
