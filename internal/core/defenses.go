package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"glitchlab/internal/analyze"
	"glitchlab/internal/codegen"
	"glitchlab/internal/firmware"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/isa"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/runctl"
)

// DefenseConfigs returns the evaluation's defense matrix in the paper's
// table order: None, Branches, Delay, Integrity, Loops, Returns,
// All\Delay, All.
func DefenseConfigs(sensitive ...string) []passes.Config {
	return []passes.Config{
		passes.None(),
		{Branches: true},
		{Delay: true},
		{Integrity: true, Sensitive: sensitive},
		{Loops: true},
		{Returns: true},
		passes.AllButDelay(sensitive...),
		passes.All(sensitive...),
	}
}

// BootRow is one Table IV row: boot-time overhead for a defense set.
type BootRow struct {
	Name     string
	Cycles   uint64 // reset to boot_done
	Constant uint64 // one-time flash-update cost included in Cycles
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Rows []BootRow
}

// Baseline returns the unprotected boot cycles.
func (t *Table4Result) Baseline() uint64 {
	for _, r := range t.Rows {
		if r.Name == "None" {
			return r.Cycles
		}
	}
	return 0
}

// Increase returns a row's raw percentage increase over the baseline.
func (t *Table4Result) Increase(r BootRow) float64 {
	base := t.Baseline()
	if base == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles) - float64(base)) / float64(base)
}

// Adjusted returns the percentage increase with the one-time flash
// constant removed, as the paper's "% Adjusted" column does.
func (t *Table4Result) Adjusted(r BootRow) float64 {
	base := t.Baseline()
	if base == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles) - float64(r.Constant) - float64(base)) /
		float64(base)
}

// RunTable4 measures the boot-time overhead of every defense set against
// the evaluation firmware (paper Table IV).
func RunTable4() (*Table4Result, error) {
	res := &Table4Result{}
	for _, cfg := range DefenseConfigs(EvalSensitive...) {
		cr, err := Compile(EvalFirmware, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: table4 %s: %w", cfg.Name(), err)
		}
		m, err := NewMachine(cr.Image)
		if err != nil {
			return nil, err
		}
		r := m.Run(50_000_000)
		if r.Reason != pipeline.StopHit || r.Tag != "boot_done" {
			return nil, fmt.Errorf("core: table4 %s boot ended %v/%q fault=%v",
				cfg.Name(), r.Reason, r.Tag, r.Fault)
		}
		res.Rows = append(res.Rows, BootRow{
			Name:     cfg.Name(),
			Cycles:   r.Cycles,
			Constant: uint64(m.Board.FlashWrites) * firmware.FlashWriteCycles,
		})
	}
	return res, nil
}

// SizeRow is one Table V row.
type SizeRow struct {
	Name  string
	Sizes codegen.Sizes
}

// Table5Result reproduces Table V.
type Table5Result struct {
	Rows []SizeRow
}

// Baseline returns the unprotected sizes.
func (t *Table5Result) Baseline() codegen.Sizes {
	for _, r := range t.Rows {
		if r.Name == "None" {
			return r.Sizes
		}
	}
	return codegen.Sizes{}
}

// RunTable5 measures the size overhead of every defense set (paper
// Table V).
func RunTable5() (*Table5Result, error) {
	res := &Table5Result{}
	for _, cfg := range DefenseConfigs(EvalSensitive...) {
		cr, err := Compile(EvalFirmware, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: table5 %s: %w", cfg.Name(), err)
		}
		res.Rows = append(res.Rows, SizeRow{Name: cfg.Name(), Sizes: cr.Image.Sizes})
	}
	return res, nil
}

// Attack identifies one of Table VI's three attack shapes.
type Attack uint8

// Table VI attacks.
const (
	AttackSingle   Attack = iota + 1 // one glitched cycle, position swept 0-10
	AttackLong                       // cycles 0..N, N swept 10-100 by 10
	AttackWindowed                   // 10-cycle window, start swept 0-10
)

// String names the attack as the evaluation prints it.
func (a Attack) String() string {
	switch a {
	case AttackSingle:
		return "Single"
	case AttackLong:
		return "Long"
	case AttackWindowed:
		return "10 Cycles"
	}
	return fmt.Sprintf("attack%d", uint8(a))
}

// Attacks lists Table VI's attacks in order.
func Attacks() []Attack { return []Attack{AttackSingle, AttackLong, AttackWindowed} }

// Table6Cell is one attack's outcome against one scenario/defense build.
type Table6Cell struct {
	Total      uint64
	Successes  uint64
	Detections uint64
}

// SuccessRate returns successes/total.
func (c Table6Cell) SuccessRate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Total)
}

// DetectionRate returns detections/(detections+successes), the paper's
// detection metric: of the glitches that did something, how many were
// caught.
func (c Table6Cell) DetectionRate() float64 {
	den := c.Detections + c.Successes
	if den == 0 {
		return 0
	}
	return float64(c.Detections) / float64(den)
}

// Scenario is a Table VI target program.
type Scenario struct {
	Name      string
	Source    string
	Sensitive []string
}

// Table6Scenarios returns the two scenarios of the paper's Table VI.
func Table6Scenarios() []Scenario {
	return []Scenario{
		{Name: "while(!a)", Source: WhileNotAFirmware},
		{Name: "if(a==SUCCESS)", Source: IfSuccessFirmware},
	}
}

// table6Settle is how long after the glitch window a run may continue
// before being classified as unaffected (still looping). Instrumented loop
// iterations are at most a few hundred cycles, so a few thousand cycles of
// settle suffice for any success or detection path to land on its symbol.
const table6Settle = 6_000

// RunTable6Cell scans one (scenario, defense, attack) cell over the full
// parameter grid. Every attempt is a pure function of (model seed, cell,
// n), where n is the attempt's index in the cell's grid order (span by
// span, grid points the fast path skips included): attempt n boots with
// flash seed word n and an otherwise pristine flash image, as if it were
// the n-th boot of a freshly programmed board (see DESIGN.md, Table VI
// engine). rn, when non-nil, is polled for cancellation every
// spansCheckEvery grid points and between spans; an interrupted cell
// returns its partial counts with an error wrapping runctl.ErrInterrupted
// (the caller does not checkpoint partial cells).
func RunTable6Cell(model *glitcher.Model, sc Scenario, cfg passes.Config,
	attack Attack, rn *runctl.Run) (Table6Cell, error) {
	return runTable6Cell(model, sc, cfg, attack, rn, nil)
}

// table6Attempt describes one executed Table VI attempt to a test visitor.
type table6Attempt struct {
	N           uint32 // grid-order index: the attempt's flash seed word
	P           glitcher.Params
	From, To    int             // glitch window, relative to the trigger
	Budget      uint64          // absolute cycle budget
	Result      pipeline.Result // classification-relevant: Reason and Tag
	FlashWrites int             // flash stores beyond the boot's own
}

func runTable6Cell(model *glitcher.Model, sc Scenario, cfg passes.Config,
	attack Attack, rn *runctl.Run, visit func(table6Attempt)) (Table6Cell, error) {
	cr, err := Compile(sc.Source, cfg)
	if err != nil {
		return Table6Cell{}, fmt.Errorf("core: table6 %s/%s: %w",
			sc.Name, cfg.Name(), err)
	}
	m, err := NewMachine(cr.Image)
	if err != nil {
		return Table6Cell{}, err
	}
	b := newTable6Board(m, cr.Image)
	// Measure the trigger's boot offset and the guard's span once. The
	// paper sweeps 11 glitch positions over its 8-10 cycle guard; our
	// unoptimized code generator dilates a defended guard iteration to
	// tens of cycles, so the equivalent-intent sweep places the same 11
	// positions uniformly across one guard iteration (see EXPERIMENTS.md
	// for this substitution's rationale).
	bootCycles, guardSpan, loopAddr, err := measureGuard(m, cr.Image)
	if err != nil {
		return Table6Cell{}, fmt.Errorf("core: table6 %s/%s: %w",
			sc.Name, cfg.Name(), err)
	}
	if err := b.capture(); err != nil {
		return Table6Cell{}, fmt.Errorf("core: table6 %s/%s: %w",
			sc.Name, cfg.Name(), err)
	}
	if !model.FullRun {
		b.replay = true
		m.LoopStop = loopAddr
		if q, ok := analyze.DelayQuotient(cr.Image.Prog, b.ramSeed); ok {
			m.Quotient = &q
		}
	}

	type span struct{ from, to int }
	var spans []span
	positions := samplePositions(guardSpan)
	switch attack {
	case AttackSingle:
		for _, c := range positions {
			spans = append(spans, span{c, c + 1})
		}
	case AttackLong:
		for n := 10; n <= 100; n += 10 {
			spans = append(spans, span{0, n})
		}
	case AttackWindowed:
		for _, s := range positions {
			spans = append(spans, span{s, s + 10})
		}
	}

	// Long's spans are nested prefixes of its last one. In trigger
	// window 0 whether an event hits is a function of (point, rel)
	// alone, so one scan per grid point finds its first hit (the last
	// span's end if none), and span [0,n) delivers an event iff that hit
	// is below n.
	var firstHit []uint8
	if attack == AttackLong {
		if err := rn.Err(); err != nil {
			return Table6Cell{}, err
		}
		to := spans[len(spans)-1].to
		firstHit = make([]uint8, 0, glitcher.GridSize)
		glitcher.Grid(func(p glitcher.Params) {
			rel := 0
			for ; rel < to; rel++ {
				if _, hit := model.EventInContext(p, rel, 0, rel); hit {
					break
				}
			}
			firstHit = append(firstHit, uint8(rel))
		})
	}

	var cell Table6Cell
	var n uint32 // attempt index in grid order, skipped points included
	for _, sp := range spans {
		if err := rn.Err(); err != nil {
			return cell, err
		}
		aborted := false
		sinceCheck := 0
		g := 0 // grid position
		budget := bootCycles + uint64(sp.to) + table6Settle
		glitcher.GridUntil(func(p glitcher.Params) bool {
			if sinceCheck++; sinceCheck >= spansCheckEvery {
				sinceCheck = 0
				if rn.Err() != nil {
					aborted = true
					return false
				}
			}
			cell.Total++
			attempt := n
			n++
			// Deterministic fast path: a parameter point that delivers
			// no event anywhere in the window cannot change the run.
			any := false
			if firstHit != nil {
				any = int(firstHit[g]) < sp.to
				g++
			} else {
				for rel := sp.from; rel < sp.to && !any; rel++ {
					_, any = model.EventInContext(p, rel, 0, rel-sp.from)
				}
			}
			if !any {
				return true
			}
			r := b.attempt(attempt, model.RangePlan(p, sp.from, sp.to), budget)
			switch {
			case r.Reason == pipeline.StopHit && r.Tag == "success":
				cell.Successes++
			case r.Reason == pipeline.StopHit && r.Tag == passes.DetectFunc:
				cell.Detections++
			}
			if visit != nil {
				visit(table6Attempt{N: attempt, P: p, From: sp.from, To: sp.to,
					Budget: budget, Result: r, FlashWrites: b.strayFlashWrites()})
			}
			return true
		})
		if aborted {
			return cell, rn.Err()
		}
	}
	return cell, nil
}

// table6Board runs Table VI attempts on one machine, each from the same
// initial conditions except its flash seed word. With replay set it
// restores a trigger-point snapshot per attempt (the dirty-page restore
// undoes every store the previous attempt made, flash included) and then
// writes the attempt's seed where the boot would have left it. Without
// replay it takes the reference path: reset the board, reload the
// pristine flash image with the attempt's seed word and run the whole
// boot, with no early stop.
type table6Board struct {
	m        *pipeline.Machine
	flash    []byte // the flash region's data
	image    []byte // pristine flash image (program, seed word 0)
	ramSeed  uint32 // the delay defense's in-RAM seed address, 0 if none
	snap     *pipeline.Snapshot
	replay   bool   // attempts resume from snap
	seedStep uint32 // flash seed increment of one boot
	flashAt  int    // flash writes at the trigger point
}

func newTable6Board(m *pipeline.Machine, img *codegen.Image) *table6Board {
	r, _ := m.Board.Mem.Region(firmware.FlashBase, 4)
	b := &table6Board{m: m, flash: r.Data, image: append([]byte(nil), r.Data...)}
	if addr, ok := img.GlobalAddrs["__gr_seed_ram"]; ok {
		b.ramSeed = addr
	}
	return b
}

// reset puts the board in its power-up state with the pristine flash
// image and flash seed word n.
func (b *table6Board) reset(n uint32) {
	b.m.Board.Reset()
	copy(b.flash, b.image)
	binary.LittleEndian.PutUint32(b.flash[firmware.SeedAddr-firmware.FlashBase:], n)
}

// capture boots with seed word 0 to the trigger and snapshots it, noting
// how the boot moved the seed and how many flash writes it made. The
// reference path only uses those notes and never restores the snapshot.
func (b *table6Board) capture() error {
	b.reset(0)
	b.m.Glitch = nil
	snap := b.m.SnapshotAtTrigger(table6BootBudget)
	if snap == nil {
		return fmt.Errorf("firmware never triggers")
	}
	b.snap = snap
	b.seedStep = b.m.Board.SeedWord()
	b.flashAt = b.m.Board.FlashWrites
	if b.ramSeed != 0 {
		if v, _ := b.m.Board.Mem.ReadWord(b.ramSeed); v != b.seedStep {
			return fmt.Errorf("in-RAM seed %#x at the trigger, want %#x", v, b.seedStep)
		}
	}
	return nil
}

// attempt runs attempt n under inj.
func (b *table6Board) attempt(n uint32, inj pipeline.Injector, budget uint64) pipeline.Result {
	m := b.m
	if !b.replay {
		b.reset(n)
		m.Glitch = inj
		return m.Run(budget)
	}
	m.RestoreSnapshot(b.snap)
	seed := n + b.seedStep
	m.Board.Mem.StoreWord(firmware.SeedAddr, seed)
	if b.ramSeed != 0 {
		m.Board.Mem.StoreWord(b.ramSeed, seed)
	}
	m.Glitch = inj
	return m.Resume(budget)
}

// strayFlashWrites reports how many flash stores the last attempt made
// beyond its boot's own.
func (b *table6Board) strayFlashWrites() int {
	return b.m.Board.FlashWrites - b.flashAt
}

// spansCheckEvery is how many grid points a Table VI span scans between
// cancellation polls — frequent enough that a deadline or SIGINT lands
// within milliseconds, rare enough to stay out of the hot path.
const spansCheckEvery = 128

// samplePositions spreads the paper's 11 glitch positions uniformly over
// one guard span.
func samplePositions(span int) []int {
	if span < 11 {
		span = 11
	}
	out := make([]int, 0, 11)
	for i := 0; i <= 10; i++ {
		out = append(out, i*(span-1)/10)
	}
	return out
}

// table6BootBudget bounds the clean boot Table VI measures and snapshots.
const table6BootBudget = firmware.FlashWriteCycles + 80_000

// measureGuard runs the firmware clean and reports the trigger's boot
// offset plus the guard's cycle span: for looping guards, one loop
// iteration; for straight-line guards, the trigger-to-halt distance. loop
// is main's first loop header, 0 if it has none.
func measureGuard(m *pipeline.Machine, img *codegen.Image) (boot uint64, span int, loop uint32, err error) {
	// Find the first loop-header block of main, if any.
	var loopAddr uint32
	for name, addr := range img.Prog.Symbols {
		if strings.HasPrefix(name, "f_main_loop") {
			if loopAddr == 0 || addr < loopAddr {
				loopAddr = addr
			}
		}
	}
	var visits []uint64
	cpu := m.Board.CPU
	prevExec := cpu.Hooks.OnExec
	cpu.Hooks.OnExec = func(addr uint32, in isa.Inst) {
		if addr == loopAddr && len(visits) < 3 {
			visits = append(visits, cpu.Cycles)
		}
	}
	m.Board.Reset()
	m.Glitch = nil
	r := m.Run(table6BootBudget)
	cpu.Hooks.OnExec = prevExec
	if m.Board.TriggerCount == 0 {
		return 0, 0, 0, fmt.Errorf("firmware never triggers")
	}
	boot = m.Board.TriggerCycle
	switch {
	case len(visits) >= 3:
		// Steady-state loop period (skip the first, partial interval).
		span = int(visits[2] - visits[1])
	case r.Reason == pipeline.StopHit:
		span = int(r.Cycles - boot)
	default:
		return 0, 0, 0, fmt.Errorf("cannot determine guard span")
	}
	if span < 1 {
		span = 1
	}
	return boot, span, loopAddr, nil
}

// Table6Result holds the full defense-efficacy matrix.
type Table6Result struct {
	// Cells[scenario][config][attack].
	Cells map[string]map[string]map[Attack]Table6Cell
}

// Table6Configs returns the two defense sets Table VI evaluates.
func Table6Configs(sensitive ...string) []passes.Config {
	return []passes.Config{passes.All(sensitive...), passes.AllButDelay(sensitive...)}
}

// RunTable6 runs the complete Table VI evaluation. This is the heaviest
// experiment (about 1.25 million glitch attempts). Each (scenario,
// defense, attack) cell is one unit on the runctl scheduler, sharded
// across workers goroutines (<= 1 for serial); cells share no mutable
// state, so the matrix is identical for every worker count. progress,
// when non-nil, sees every cell with a result, from the worker that ran
// it (calls may be concurrent when workers > 1). rn, when non-nil,
// threads the run controller through the matrix: every cell is
// checkpointed, skipped on resume and quarantined on panic; an
// interrupted run returns the cells completed so far with an error
// wrapping runctl.ErrInterrupted.
func RunTable6(model *glitcher.Model, workers int, progress func(sc, cfg string, a Attack,
	cell Table6Cell), rn *runctl.Run) (*Table6Result, error) {
	type unit struct {
		sc     Scenario
		cfg    passes.Config
		attack Attack
	}
	res := &Table6Result{Cells: map[string]map[string]map[Attack]Table6Cell{}}
	var units []unit
	var keys []string
	for _, sc := range Table6Scenarios() {
		res.Cells[sc.Name] = map[string]map[Attack]Table6Cell{}
		for _, cfg := range Table6Configs(sc.Sensitive...) {
			res.Cells[sc.Name][cfg.Name()] = map[Attack]Table6Cell{}
			for _, attack := range Attacks() {
				units = append(units, unit{sc, cfg, attack})
				keys = append(keys, fmt.Sprintf("table6 scenario=%s config=%s attack=%s",
					sc.Name, cfg.Name(), attack))
			}
		}
	}
	cells, done, err := runctl.Sweep(rn, runctl.Units[struct{}, Table6Cell]{
		Keys:    keys,
		Workers: workers,
		Do: func(_ struct{}, i int) (Table6Cell, error) {
			u := units[i]
			return RunTable6Cell(model, u.sc, u.cfg, u.attack, rn)
		},
		Done: func(i int, cell Table6Cell) {
			if progress != nil {
				u := units[i]
				progress(u.sc.Name, u.cfg.Name(), u.attack, cell)
			}
		},
	})
	if err != nil && !errors.Is(err, runctl.ErrInterrupted) {
		return nil, err
	}
	for i, u := range units {
		if done[i] {
			res.Cells[u.sc.Name][u.cfg.Name()][u.attack] = cells[i]
		}
	}
	if err != nil {
		return res, err
	}
	return res, rn.FinishErr()
}
