package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"glitchlab/internal/campaign"
	"glitchlab/internal/codegen"
	"glitchlab/internal/core"
	"glitchlab/internal/firmware"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/isa"
	"glitchlab/internal/obs"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/report"
	"glitchlab/internal/search"
	"glitchlab/internal/serve"
)

// SHA-256 digests of the rendered outputs, recorded at the commit that
// defined the benchmark. They equal the digests of the files written by
// `glitchemu -out`, `glitchemu -pad-udf -out` and `glitchscan -exp all
// -out`. The scan digest holds for the default seed only; other seeds are
// checked for agreement between passes.
const (
	campaignDigest = "60b708e97621c7aad2b93e826675be4c9880f8183a45f7ee2059723d1057515f"
	padUDFDigest   = "a15565255701a3d1f5d163db2da6b04ca1414f4f6f7b3f7f17aac48c9986b2ae"
	scanAllDigest  = "eba8df2ddd93da6c3d6f8e41f522d33c1b0001169509cb102c397dc27fc44ac3"
)

// defaultSeed is the fault-model seed of the published tables; a workload
// seed of 0 means it too, as in serve.Spec.
const defaultSeed = core.DefaultSeed

func engineSeed(seed uint64) uint64 {
	if seed == 0 {
		return defaultSeed
	}
	return seed
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// minPasses lets every batch workload compare a pass with an earlier one.
const minPasses = 2

// runPasses measures a batch workload, run as a series of passes over a
// fixed unit of work. It starts passes until the run's time is up (and at
// least minPasses), each one a job; pass runs and checks one pass and
// returns the attempts it evaluated. verify then makes the untimed
// end-of-run checks.
func runPasses(seconds float64, seg *segment, pass func() (attempts uint64, err error), verify func(*segment) error) {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		seg.sampleSetup(false)
		t0 := time.Now()
		attempts, err := pass()
		d := time.Since(t0)
		seg.attempted++
		if err != nil {
			seg.fail("pass %d: %v", n, err)
			continue
		}
		seg.busy += d
		seg.latencies = append(seg.latencies, ms(d))
		seg.attempts += attempts
	}
	seg.attempted++
	if err := verify(seg); err != nil {
		seg.fail("verify: %v", err)
	}
}

// table6Cell is one (scenario, defense set, attack) cell of Table VI.
type table6Cell struct {
	sc     core.Scenario
	cfg    passes.Config
	attack core.Attack
}

func (c table6Cell) String() string {
	return fmt.Sprintf("%s %s %s", c.sc.Name, c.cfg.Name(), c.attack)
}

// table6Slice is the fixed slice of Table VI the table6 workload runs: both
// scenarios, both defense sets and all three attack shapes.
func table6Slice() []table6Cell {
	scs := core.Table6Scenarios()
	whileNotA, ifSuccess := scs[0], scs[1]
	cell := func(sc core.Scenario, delay bool, a core.Attack) table6Cell {
		cfgs := core.Table6Configs(sc.Sensitive...) // All, All\Delay
		cfg := cfgs[0]
		if !delay {
			cfg = cfgs[1]
		}
		return table6Cell{sc, cfg, a}
	}
	return []table6Cell{
		cell(whileNotA, true, core.AttackSingle),
		cell(whileNotA, false, core.AttackSingle),
		cell(ifSuccess, true, core.AttackLong),
		cell(ifSuccess, false, core.AttackWindowed),
	}
}

// table6Work runs the slice through core.RunTable6Cell, where Table VI
// spends its time: a full Board.Reset and pipeline run per executed
// attempt.
type table6Work struct {
	model *glitcher.Model
	cells []table6Cell
	first []core.Table6Cell // the first pass's counts, compared with later passes
}

func newTable6Work(seed uint64) *table6Work {
	return &table6Work{model: glitcher.NewModel(engineSeed(seed)), cells: table6Slice()}
}

func (w *table6Work) setup() error {
	for _, c := range w.cells {
		cr, err := core.Compile(c.sc.Source, c.cfg)
		if err != nil {
			return err
		}
		if _, err := core.NewMachine(cr.Image); err != nil {
			return err
		}
	}
	return nil
}

func (w *table6Work) measure(seconds float64, tr *obs.Tracer, seg *segment) {
	runPasses(seconds, seg, func() (uint64, error) { return w.pass(tr) }, w.verify)
}

func (w *table6Work) pass(tr *obs.Tracer) (uint64, error) {
	defer tr.StartSpan("table6.pass", nil).End()
	var counts []core.Table6Cell
	var attempts uint64
	for _, c := range w.cells {
		sp := tr.StartSpan("core.RunTable6Cell", map[string]any{"cell": c.String()})
		got, err := core.RunTable6Cell(w.model, c.sc, c.cfg, c.attack, nil)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c, err)
		}
		counts = append(counts, got)
		attempts += got.Total
	}
	if w.first == nil {
		w.first = counts
	}
	return attempts, checkTable6Repeat(w.cells, w.first, counts)
}

// checkTable6Repeat requires a pass to reproduce the first pass's counts.
func checkTable6Repeat(cells []table6Cell, first, got []core.Table6Cell) error {
	for i := range cells {
		if got[i] != first[i] {
			return fmt.Errorf("%s: counts %+v differ from the first pass's %+v", cells[i], got[i], first[i])
		}
	}
	return nil
}

func (w *table6Work) verify(seg *segment) error {
	if w.first == nil {
		return fmt.Errorf("no pass completed")
	}
	var lines []string
	for i, c := range w.cells {
		executed, spans, err := table6Executed(w.model, c)
		if err != nil {
			return err
		}
		if err := checkTable6Cell(w.first[i], spans, executed); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		got := w.first[i]
		lines = append(lines, fmt.Sprintf("%s total=%d executed=%d successes=%d detections=%d",
			c, got.Total, executed, got.Successes, got.Detections))
	}
	seg.note("table6 counts digest %s (not gated)", digest([]byte(strings.Join(lines, "\n")))[:16])
	for _, l := range lines {
		seg.note("table6 %s", l)
	}
	return nil
}

// checkTable6Cell checks a cell's invariants: Total is the full grid per
// span, and successes + detections <= executed <= Total.
func checkTable6Cell(c core.Table6Cell, spans int, executed uint64) error {
	if want := uint64(glitcher.GridSize * spans); c.Total != want {
		return fmt.Errorf("total %d, want %d (%d spans x %d)", c.Total, want, spans, glitcher.GridSize)
	}
	if executed > c.Total {
		return fmt.Errorf("executed %d > total %d", executed, c.Total)
	}
	if c.Successes+c.Detections > executed {
		return fmt.Errorf("successes %d + detections %d > executed %d", c.Successes, c.Detections, executed)
	}
	return nil
}

// table6Guard mirrors core.RunTable6Cell's measurement of the trigger's
// boot offset and the guard span on a clean run: one loop iteration for
// looping guards, the trigger-to-halt distance otherwise.
func table6Guard(img *codegen.Image, m *pipeline.Machine) (boot uint64, span int, err error) {
	var loopAddr uint32
	for name, addr := range img.Prog.Symbols {
		if strings.HasPrefix(name, "f_main_loop") && (loopAddr == 0 || addr < loopAddr) {
			loopAddr = addr
		}
	}
	var visits []uint64
	cpu := m.Board.CPU
	prev := cpu.Hooks.OnExec
	cpu.Hooks.OnExec = func(addr uint32, _ isa.Inst) {
		if addr == loopAddr && len(visits) < 3 {
			visits = append(visits, cpu.Cycles)
		}
	}
	m.Board.Reset()
	m.Glitch = nil
	r := m.Run(firmware.FlashWriteCycles + 80_000)
	cpu.Hooks.OnExec = prev
	if m.Board.TriggerCount == 0 {
		return 0, 0, fmt.Errorf("firmware never triggers")
	}
	boot = m.Board.TriggerCycle
	switch {
	case len(visits) >= 3:
		span = int(visits[2] - visits[1])
	case r.Reason == pipeline.StopHit:
		span = int(r.Cycles - boot)
	default:
		return 0, 0, fmt.Errorf("cannot determine guard span")
	}
	return boot, max(span, 1), nil
}

// table6Windows mirrors core.RunTable6Cell's glitch windows [from, to)
// relative to the trigger for one attack over a guard span.
func table6Windows(a core.Attack, guardSpan int) [][2]int {
	guardSpan = max(guardSpan, 11)
	var out [][2]int
	for i := 0; i <= 10; i++ {
		c := i * (guardSpan - 1) / 10
		switch a {
		case core.AttackSingle:
			out = append(out, [2]int{c, c + 1})
		case core.AttackWindowed:
			out = append(out, [2]int{c, c + 10})
		case core.AttackLong:
			if i > 0 {
				out = append(out, [2]int{0, 10 * i})
			}
		}
	}
	return out
}

// hasEvent is core.RunTable6Cell's fast-path test: false means no event
// lands anywhere in the window, so the attempt is skipped.
func hasEvent(model *glitcher.Model, p glitcher.Params, w [2]int) bool {
	for rel := w[0]; rel < w[1]; rel++ {
		if _, hit := model.EventInContext(p, rel, 0, rel-w[0]); hit {
			return true
		}
	}
	return false
}

// table6Machine compiles one slice cell's build and returns a machine for
// it with the trigger's boot offset and the cell's glitch windows.
func table6Machine(c table6Cell) (*pipeline.Machine, uint64, [][2]int, error) {
	cr, err := core.Compile(c.sc.Source, c.cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	m, err := core.NewMachine(cr.Image)
	if err != nil {
		return nil, 0, nil, err
	}
	boot, span, err := table6Guard(cr.Image, m)
	if err != nil {
		return nil, 0, nil, err
	}
	return m, boot, table6Windows(c.attack, span), nil
}

// table6Executed counts the grid points of a cell that the fast path does
// not skip: the attempts core.RunTable6Cell executes.
func table6Executed(model *glitcher.Model, c table6Cell) (executed uint64, spans int, err error) {
	_, _, windows, err := table6Machine(c)
	if err != nil {
		return 0, 0, err
	}
	for _, w := range windows {
		glitcher.Grid(func(p glitcher.Params) {
			if hasEvent(model, p, w) {
				executed++
			}
		})
	}
	return executed, len(windows), nil
}

// scansWork runs serve.Exec of scan "all": Tables I-III and the V-B
// search through glitcher.Target trigger-point replay.
type scansWork struct {
	model *glitcher.Model
	spec  serve.Spec
	want  string // recorded digest, or the first pass's
}

func newScansWork(seed uint64) (*scansWork, error) {
	spec, err := serve.Spec{Kind: serve.KindScan, Exp: "all", Seed: engineSeed(seed)}.Normalize()
	if err != nil {
		return nil, err
	}
	w := &scansWork{model: glitcher.NewModel(spec.Seed), spec: spec}
	if spec.Seed == defaultSeed {
		w.want = scanAllDigest
	}
	return w, nil
}

func (w *scansWork) setup() error {
	for _, g := range glitcher.Guards() {
		for _, src := range []string{g.SingleLoopSource(), g.DoubleLoopSource(), g.LongGlitchSource()} {
			if _, err := glitcher.NewTarget(g, src); err != nil {
				return err
			}
		}
	}
	for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		if _, err := search.New(w.model, g); err != nil {
			return err
		}
	}
	return nil
}

func (w *scansWork) measure(seconds float64, tr *obs.Tracer, seg *segment) {
	runPasses(seconds, seg, func() (uint64, error) { return w.pass(tr) }, w.verify)
}

func (w *scansWork) pass(tr *obs.Tracer) (uint64, error) {
	var buf bytes.Buffer
	sp := tr.StartSpan("serve.Exec", map[string]any{"kind": w.spec.Kind, "exp": w.spec.Exp, "seed": w.spec.Seed})
	err := serve.Exec(w.spec, serve.Env{Workers: 1}, &buf)
	sp.End()
	if err != nil {
		return 0, err
	}
	if w.want == "" {
		w.want = digest(buf.Bytes())
	}
	if err := checkDigest("scan all", buf.Bytes(), w.want); err != nil {
		return 0, err
	}
	return scanAttempts(buf.Bytes())
}

func (w *scansWork) verify(seg *segment) error {
	seg.note("scans seed %d digest %s", w.spec.Seed, w.want)
	return nil
}

// checkDigest compares a rendered output with its expected digest.
func checkDigest(what string, out []byte, want string) error {
	if got := digest(out); got != want {
		return fmt.Errorf("%s output digest %s, want %s", what, got, want)
	}
	return nil
}

var (
	table1Total  = regexp.MustCompile(`(?m)^Total\s+\d+/(\d+) `)
	searchCounts = regexp.MustCompile(`\((\d+) successes in (\d+) attempts\)`)
)

// scanAttempts counts the grid attempts a rendered scan "all" reports, as
// the result structs count them: Table I's per-guard attempt totals, the
// full grid per cycle (Table II) and per long-glitch range (Table III),
// and every glitch the V-B searches fired.
func scanAttempts(out []byte) (uint64, error) {
	guards := uint64(len(glitcher.Guards()))
	t1 := table1Total.FindAllSubmatch(out, -1)
	s := searchCounts.FindAllSubmatch(out, -1)
	if uint64(len(t1)) != guards || len(s) != 2 {
		return 0, fmt.Errorf("scan all output has %d Table I totals and %d search results, want %d and 2",
			len(t1), len(s), guards)
	}
	n := guards * glitcher.GridSize * (glitcher.LoopCycles + 11)
	for _, m := range append(t1, s...) {
		v, err := strconv.ParseUint(string(m[len(m)-1]), 10, 64)
		if err != nil {
			return 0, err
		}
		n += v
	}
	return n, nil
}

// campaignWork runs serve.Exec of the four published Figure 2 variants
// and of their UDF-padded counterparts, with no observer attached, so the
// per-word outcome memo is on. Each pass runs one of the two specs, in
// turn; they take about as long as each other.
type campaignWork struct {
	specs   []serve.Spec
	want    []string
	outputs [][]byte // each spec's first output, re-derived by verify
	runs    uint64   // planned executions per spec
	next    int      // the spec the next pass runs
}

func newCampaignWork(seed uint64) (*campaignWork, error) {
	w := &campaignWork{
		want:    []string{campaignDigest, padUDFDigest},
		outputs: make([][]byte, 2),
		next:    int(seed % 2), // the seed only picks the spec that runs first
	}
	for _, s := range []serve.Spec{{Kind: serve.KindCampaign}, {Kind: serve.KindCampaign, PadUDF: true}} {
		n, err := s.Normalize()
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, n)
	}
	variants, err := core.Figure2Variants("", false)
	if err != nil {
		return nil, err
	}
	w.runs = uint64(len(variants)) * campaign.PlannedRuns(16)
	return w, nil
}

func (w *campaignWork) setup() error {
	for _, cond := range isa.BranchConds() {
		for _, zero := range []bool{false, true} {
			if _, err := campaign.NewRunner(cond, zero); err != nil {
				return err
			}
		}
		if _, err := campaign.NewPaddedRunner(cond, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *campaignWork) measure(seconds float64, tr *obs.Tracer, seg *segment) {
	runPasses(seconds, seg, func() (uint64, error) { return w.pass(tr) }, w.verify)
}

func (w *campaignWork) pass(tr *obs.Tracer) (uint64, error) {
	i := w.next
	w.next = (i + 1) % len(w.specs)
	spec := w.specs[i]
	var buf bytes.Buffer
	sp := tr.StartSpan("serve.Exec", map[string]any{"kind": spec.Kind, "pad_udf": spec.PadUDF})
	err := serve.Exec(spec, serve.Env{Workers: 1}, &buf)
	sp.End()
	if err != nil {
		return 0, err
	}
	if err := checkDigest(fmt.Sprintf("campaign pad_udf=%t", spec.PadUDF), buf.Bytes(), w.want[i]); err != nil {
		return 0, err
	}
	if w.outputs[i] == nil {
		w.outputs[i] = buf.Bytes()
	}
	return w.runs, nil
}

// verify re-runs each variant directly, checks campaign.VerifyAccounting
// and the planned execution count on the result structs, and requires
// their rendering to equal the bytes each spec was first served.
func (w *campaignWork) verify(seg *segment) error {
	variants, err := core.Figure2Variants("", false)
	if err != nil {
		return err
	}
	for i, spec := range w.specs {
		if w.outputs[i] == nil {
			return fmt.Errorf("campaign pad_udf=%t never completed", spec.PadUDF)
		}
		var buf bytes.Buffer
		var runs uint64
		for _, v := range variants {
			var results []campaign.CondResult
			if spec.PadUDF {
				results, err = core.RunUDFHardening(v.Model, spec.MaxFlips, 1, false, nil, nil, nil)
			} else {
				results, err = core.RunFigure2(v.Model, v.ZeroInvalid, spec.MaxFlips, 1, false, nil, nil, nil)
			}
			if err != nil {
				return err
			}
			if err := campaign.VerifyAccounting(results); err != nil {
				return err
			}
			for _, r := range results {
				runs += r.Runs
			}
			fmt.Fprintln(&buf, report.Figure2(results, v.Model, v.ZeroInvalid))
		}
		if !bytes.Equal(buf.Bytes(), w.outputs[i]) {
			return fmt.Errorf("campaign pad_udf=%t: served output differs from the verified results", spec.PadUDF)
		}
		if runs != w.runs {
			return fmt.Errorf("campaign pad_udf=%t: results count %d runs, planned %d", spec.PadUDF, runs, w.runs)
		}
	}
	seg.note("campaign digests %s %s, %d runs per job", w.want[0], w.want[1], w.runs)
	return nil
}
