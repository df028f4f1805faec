package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/runctl"
	"glitchlab/internal/search"
	"glitchlab/internal/serve"
)

// table6Settle mirrors core's settle budget after a Table VI glitch
// window.
const table6Settle = 6_000

// ladderSink keeps timed results from being optimized away.
var ladderSink uint64

// ladder times calls into each layer's public functions, each batch under
// a span of tr, and collects the per-layer metrics.
type ladder struct {
	model *glitcher.Model
	seed  uint64
	tmp   string
	tr    *obs.Tracer
	out   map[string]float64
}

// runLadder runs every layer step; a step that fails counts as a failed
// operation of the traced run.
func runLadder(seed uint64, tmp string, tr *obs.Tracer, seg *segment) map[string]float64 {
	l := &ladder{model: glitcher.NewModel(engineSeed(seed)), seed: seed, tmp: tmp, tr: tr, out: map[string]float64{}}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"isa", l.isa}, {"emu", l.emu}, {"firmware", l.firmware}, {"pipeline", l.pipeline},
		{"glitcher", l.glitcher}, {"search", l.search}, {"campaign", l.campaign},
		{"core", l.core}, {"runctl", l.runctl}, {"serve", l.serve},
	}
	for _, s := range steps {
		seg.attempted++
		if err := s.fn(); err != nil {
			seg.fail("layer %s: %v", s.name, err)
		}
	}
	return l.out
}

// timed runs fn under a span and returns its duration.
func (l *ladder) timed(span string, attrs map[string]any, fn func()) time.Duration {
	sp := l.tr.StartSpan(span, attrs)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	return d
}

func perCall(d time.Duration, calls int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(calls)
}

func (l *ladder) isa() error {
	var reps []float64
	for r := 0; r < 20; r++ {
		d := l.timed("isa.Decode", map[string]any{"calls": 1 << 16}, func() {
			for hw := 0; hw < 1<<16; hw++ {
				ladderSink += uint64(isa.Decode(uint16(hw), 0).Op)
			}
		})
		reps = append(reps, perCall(d, 1<<16, time.Nanosecond))
	}
	l.out["isa.decode_ns"] = median(reps)
	return nil
}

func (l *ladder) emu() error {
	g := glitcher.GuardWhileNotA
	t, err := glitcher.NewTarget(g, g.SingleLoopSource())
	if err != nil {
		return err
	}
	const steps = 100_000
	var reps []float64
	var stepErr error
	for r := 0; r < 5; r++ {
		t.Board.Reset()
		cpu := t.Board.CPU
		d := l.timed("emu.CPU.Step", map[string]any{"calls": steps}, func() {
			for i := 0; i < steps && stepErr == nil; i++ {
				_, stepErr = cpu.Step()
			}
		})
		if stepErr != nil {
			return stepErr
		}
		reps = append(reps, perCall(d, steps, time.Nanosecond))
	}
	l.out["emu.step_ns"] = median(reps)
	return nil
}

func (l *ladder) firmware() error {
	m, _, _, err := table6Machine(table6Slice()[0])
	if err != nil {
		return err
	}
	const resets = 500
	var reps []float64
	for r := 0; r < 5; r++ {
		d := l.timed("firmware.Board.Reset", map[string]any{"calls": resets}, func() {
			for i := 0; i < resets; i++ {
				m.Board.Reset()
			}
		})
		reps = append(reps, perCall(d, resets, time.Microsecond))
	}
	l.out["firmware.reset_us"] = median(reps)
	return nil
}

// pipeline replays the executed attempts of the while(!a) All Single cell
// the way core.RunTable6Cell runs them, timing Machine.Run alone.
func (l *ladder) pipeline() error {
	m, boot, windows, err := table6Machine(table6Slice()[0])
	if err != nil {
		return err
	}
	const maxRuns = 1500
	var runs, hung int
	var steps uint64
	var busy time.Duration
	for _, w := range windows {
		glitcher.GridUntil(func(p glitcher.Params) bool {
			if !hasEvent(l.model, p, w) {
				return true
			}
			m.Board.Reset()
			m.Glitch = l.model.RangePlan(p, w[0], w[1])
			var r pipeline.Result
			busy += l.timed("pipeline.Machine.Run", nil, func() {
				r = m.Run(boot + uint64(w[1]) + table6Settle)
			})
			runs++
			steps += r.Steps
			if r.Reason == pipeline.StopHung {
				hung++
			}
			return runs < maxRuns
		})
	}
	if runs == 0 || steps == 0 {
		return fmt.Errorf("no Table VI attempt executed")
	}
	l.out["pipeline.run_us"] = perCall(busy, runs, time.Microsecond)
	l.out["pipeline.steps_per_run"] = float64(steps) / float64(runs)
	l.out["pipeline.step_ns"] = float64(busy.Nanoseconds()) / float64(steps)
	l.out["pipeline.hang_share"] = float64(hung) / float64(runs)
	return nil
}

func (l *ladder) glitcher() error {
	var reps []float64
	calls, hits := 0, 0
	for r := 0; r < 3; r++ {
		calls, hits = 0, 0
		d := l.timed("glitcher.Model.EventInContext", nil, func() {
			glitcher.Grid(func(p glitcher.Params) {
				for rel := 0; rel <= 10; rel++ {
					calls++
					if _, hit := l.model.EventInContext(p, rel, 0, 0); hit {
						hits++
					}
				}
			})
		})
		reps = append(reps, perCall(d, calls, time.Nanosecond))
	}
	l.out["glitcher.event_ns"] = median(reps)
	l.out["glitcher.event_hit_ratio"] = float64(hits) / float64(calls)

	g := glitcher.GuardWhileNotA
	t, err := glitcher.NewTarget(g, g.SingleLoopSource())
	if err != nil {
		return err
	}
	const maxAttempts = 2000
	attempts := 0
	d := l.timed("glitcher.Target.Attempt", nil, func() {
		for cycle := 0; cycle < glitcher.LoopCycles && attempts < maxAttempts; cycle++ {
			glitcher.GridUntil(func(p glitcher.Params) bool {
				if _, hit := l.model.EventAt(p, cycle, 0); hit {
					ladderSink += t.Attempt(l.model.Plan(p, cycle)).Steps
					attempts++
				}
				return attempts < maxAttempts
			})
		}
	})
	l.out["glitcher.attempt_us"] = perCall(d, attempts, time.Microsecond)

	// The three scans, serially; their attempt counts must match the
	// ones scanAttempts assumes for a rendered scan "all".
	guards := glitcher.Guards()
	tables := []struct {
		metric, span string
		perGuard     uint64
		run          func(g glitcher.Guard) (uint64, error)
	}{
		{"glitcher.table1_s", "glitcher.RunTable1Workers", glitcher.LoopCycles * glitcher.GridSize,
			func(g glitcher.Guard) (uint64, error) {
				r, err := l.model.RunTable1Workers(g, 1, nil)
				if err != nil {
					return 0, err
				}
				return r.Attempts, nil
			}},
		{"glitcher.table2_s", "glitcher.RunTable2Workers", glitcher.LoopCycles * glitcher.GridSize,
			func(g glitcher.Guard) (uint64, error) {
				r, err := l.model.RunTable2Workers(g, 1, nil)
				if err != nil {
					return 0, err
				}
				return r.Attempts, nil
			}},
		{"glitcher.table3_s", "glitcher.RunTable3Workers", 11 * glitcher.GridSize,
			func(g glitcher.Guard) (uint64, error) {
				r, err := l.model.RunTable3Workers(g, 1, nil)
				if err != nil {
					return 0, err
				}
				return r.Attempts, nil
			}},
	}
	for _, tb := range tables {
		var attempts uint64
		var runErr error
		d := l.timed(tb.span, nil, func() {
			for _, g := range guards {
				n, err := tb.run(g)
				if err != nil {
					runErr = err
					return
				}
				attempts += n
			}
		})
		if runErr != nil {
			return runErr
		}
		if want := tb.perGuard * uint64(len(guards)); attempts != want {
			return fmt.Errorf("%s: %d attempts, want %d", tb.span, attempts, want)
		}
		l.out[tb.metric] = d.Seconds()
	}
	return nil
}

func (l *ladder) search() error {
	var reps []float64
	for r := 0; r < 3; r++ {
		for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
			s, err := search.New(l.model, g)
			if err != nil {
				return err
			}
			d := l.timed("search.Searcher.Find", map[string]any{"guard": g.String()}, func() {
				ladderSink += s.Find().Attempts
			})
			reps = append(reps, ms(d))
		}
	}
	l.out["search.find_ms"] = median(reps)
	return nil
}

func (l *ladder) campaign() error {
	sweep := func(name string, observed bool) error {
		var reps []float64
		for _, cond := range isa.BranchConds() {
			r, err := campaign.NewRunner(cond, false)
			if err != nil {
				return err
			}
			if observed {
				// As the daemon observes a job: a fresh registry and a
				// tracer keeping every event record.
				tr := obs.NewTracer(io.Discard)
				tr.SetSampling(1)
				r.Obs = campaign.NewObserver(obs.NewRegistry(), tr)
			}
			d := l.timed("campaign.Runner.Sweep", map[string]any{"cond": cond.String(), "observed": observed}, func() {
				ladderSink += r.Sweep(mutate.AND, 16).Runs
			})
			reps = append(reps, perCall(d, 1, time.Microsecond))
		}
		l.out[name] = median(reps)
		return nil
	}
	if err := sweep("campaign.sweep_bare_us", false); err != nil {
		return err
	}
	if err := sweep("campaign.sweep_observed_us", true); err != nil {
		return err
	}
	var reps []float64
	for r := 0; r < 3; r++ {
		var err error
		d := l.timed("campaign.Run", nil, func() {
			_, err = campaign.Run(campaign.Config{Model: mutate.AND, MaxFlips: 16, Workers: 1})
		})
		if err != nil {
			return err
		}
		reps = append(reps, ms(d))
	}
	l.out["campaign.run_ms"] = median(reps)
	return nil
}

func (l *ladder) core() error {
	var reps []float64
	for r := 0; r < 5; r++ {
		for _, c := range table6Slice() {
			var err error
			d := l.timed("core.Compile", map[string]any{"build": c.sc.Name + " " + c.cfg.Name()}, func() {
				_, err = core.Compile(c.sc.Source, c.cfg)
			})
			if err != nil {
				return err
			}
			reps = append(reps, ms(d))
		}
	}
	l.out["core.compile_ms"] = median(reps)

	c := table6Slice()[2] // if(a==SUCCESS) All Long
	var cell core.Table6Cell
	var err error
	d := l.timed("core.RunTable6Cell", map[string]any{"cell": c.String()}, func() {
		cell, err = core.RunTable6Cell(l.model, c.sc, c.cfg, c.attack, nil)
	})
	if err != nil {
		return err
	}
	executed, spans, err := table6Executed(l.model, c)
	if err != nil {
		return err
	}
	if err := checkTable6Cell(cell, spans, executed); err != nil {
		return err
	}
	l.out["core.table6_cell_s"] = d.Seconds()
	l.out["core.table6_exec_ratio"] = float64(executed) / float64(cell.Total)
	l.out["core.table6_useful_ratio"] = float64(cell.Successes+cell.Detections) / float64(executed)
	return nil
}

func (l *ladder) runctl() error {
	rn, err := runctl.Open(context.Background(), filepath.Join(l.tmp, "runctl"),
		runctl.Manifest{Tool: "glitchbench", ConfigHash: "ladder", Seed: l.seed}, false)
	if err != nil {
		return err
	}
	const units = 100
	var reps []float64
	for i := 0; i < units && err == nil; i++ {
		d := l.timed("runctl.Run.Complete", nil, func() {
			err = rn.Complete(fmt.Sprintf("unit %d", i), map[string]int{"n": i})
		})
		reps = append(reps, perCall(d, 1, time.Microsecond))
	}
	if cerr := rn.Close(); err == nil {
		err = cerr
	}
	l.out["runctl.complete_us"] = median(reps)
	return err
}

func (l *ladder) serve() error {
	execs := []struct {
		name string
		spec serve.Spec
		reps int
	}{
		{"serve.exec_campaign_ms", serve.Spec{Kind: serve.KindCampaign, Model: "and"}, 5},
		{"serve.exec_scan_ms", serve.Spec{Kind: serve.KindScan, Exp: "table1a", Seed: engineSeed(l.seed)}, 3},
		{"serve.exec_eval_ms", serve.Spec{Kind: serve.KindEval, Exp: "table4"}, 5},
	}
	for _, e := range execs {
		spec, err := e.spec.Normalize()
		if err != nil {
			return err
		}
		var reps []float64
		for r := 0; r < e.reps && err == nil; r++ {
			d := l.timed("serve.Exec", map[string]any{"kind": spec.Kind, "exp": spec.Exp}, func() {
				err = serve.Exec(spec, serve.Env{Workers: 1}, io.Discard)
			})
			reps = append(reps, ms(d))
		}
		if err != nil {
			return err
		}
		l.out[e.name] = median(reps)
	}

	// One short glitchd session, then each executed job's served latency
	// against a direct Exec of its spec.
	g := newGlitchdWork(l.seed, l.tmp)
	per, err := g.sessionSpecs(0)
	if err != nil {
		return err
	}
	for c := range per {
		per[c] = per[c][:12]
	}
	jobs, _, err := runSession(filepath.Join(l.tmp, "ladder-session"), per, l.tr)
	if err != nil {
		return err
	}
	seg := &segment{}
	execTimes := checkJobs(jobs, seg)
	if seg.failed > 0 {
		return fmt.Errorf("%d of %d served jobs failed their checks: %v", seg.failed, len(jobs), seg.notes)
	}
	var submits, overheads []float64
	hits, refused := 0, 0
	for _, j := range jobs {
		submits = append(submits, ms(j.submit))
		switch {
		case j.refused:
			refused++
		case j.cacheHit:
			hits++
		case !j.coalesced:
			overheads = append(overheads, ms(j.latency-execTimes[j.spec.CacheKey("")]))
		}
	}
	l.out["serve.submit_ms"] = median(submits)
	l.out["serve.overhead_ms"] = median(overheads)
	l.out["serve.cache_hit_ratio"] = float64(hits) / float64(len(jobs))
	l.out["serve.refused_share"] = float64(refused) / float64(len(jobs))
	return l.fullCampaign()
}

// fullCampaign serves one full-size campaign job, the 16-flip default,
// alone on a fresh daemon that writes its real event stream to disk, and
// times it against a direct Exec of the same spec. The glitchd workload
// caps its campaigns at 3 flips, so this is where the cost of serving a
// full campaign shows.
func (l *ladder) fullCampaign() error {
	spec, err := serve.Spec{Kind: serve.KindCampaign, Model: "and"}.Normalize()
	if err != nil {
		return err
	}
	jobs, _, err := runSession(filepath.Join(l.tmp, "ladder-full-campaign"), [][]serve.Spec{{spec}}, l.tr)
	if err != nil {
		return err
	}
	seg := &segment{}
	execTimes := checkJobs(jobs, seg)
	if seg.failed > 0 {
		return fmt.Errorf("full campaign job failed its check: %v", seg.notes)
	}
	j := jobs[0]
	l.out["serve.full_campaign_ms"] = ms(j.latency)
	l.out["serve.full_campaign_overhead_ms"] = ms(j.latency - execTimes[spec.CacheKey("")])
	return nil
}
