package difftest

import (
	"fmt"

	"glitchlab/internal/core"
	"glitchlab/internal/isa"
	"glitchlab/internal/pipeline"
)

// replayBudget is the cycle budget for replay-equivalence runs. MaxSteps
// does the real bounding (it cuts full and replayed runs at the same
// retired instruction); the cycle budget only has to be large enough that
// flash-programming stalls cannot trip it asymmetrically.
const replayBudget = 500_000_000

// replayInjectors returns the synthetic glitch plans the equivalence check
// probes: nothing, an issue-suppression, a sustained instruction-corruption
// burst, and a register corruption at the window start. They exercise every
// dispatch path of the pipeline's glitch mapping without depending on the
// glitcher's physics model.
func replayInjectors() []pipeline.Injector {
	return []pipeline.Injector{
		nil, // clean replay
		pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
			if rel == 2 && window == 0 {
				return pipeline.Event{Kind: pipeline.EventSkip}, true
			}
			return pipeline.Event{}, false
		}),
		pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
			if rel >= 1 && rel <= 4 {
				return pipeline.Event{Kind: pipeline.EventExecCorrupt, InstMask: 0x0840}, true
			}
			return pipeline.Event{}, false
		}),
		pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
			if rel == 0 {
				return pipeline.Event{Kind: pipeline.EventRegCorrupt, Reg: isa.R3, DataMask: 0xFF}, true
			}
			return pipeline.Event{}, false
		}),
	}
}

// runReason renders a pipeline result's stop the way Execution.Outcome does.
func runReason(r pipeline.Result) string {
	switch r.Reason {
	case pipeline.StopHit:
		return "stop:" + r.Tag
	case pipeline.StopHung:
		return "hang"
	default:
		return fmt.Sprintf("fault:%v", r.Fault)
	}
}

// CheckReplayEquivalence compiles the seeded mini-C program under every
// defense configuration and asserts trigger-point snapshot/replay is
// indistinguishable from full from-reset runs: for each synthetic injector,
// a fresh full run and a replayed run must agree on every observable the
// glitch-free differential oracle compares — stop reason, registers, flags,
// cycle/step counters, trigger bookkeeping and the complete contents of
// RAM, flash and GPIO. Each snapshot is replayed twice per injector set, so
// a restore that corrupts its own snapshot cannot pass.
func CheckReplayEquivalence(seed int64) error {
	src := GenMiniC(seed)
	for i, cfg := range core.DefenseConfigs("state") {
		name := cfg.Name()
		res, err := core.Compile(src, cfg)
		if err != nil {
			return fmt.Errorf("difftest: %s build failed: %w\nsource:\n%s", name, err, src)
		}
		// Full runs get a fresh machine each: a replayed attempt restores
		// the first boot's state exactly, while a re-Reset board keeps its
		// flash — the random-delay defense persists its PRNG seed there, so
		// successive boots of one board legitimately time differently. The
		// equivalence claim is against a full run from the same initial
		// conditions.
		newFull := func() (*pipeline.Machine, error) {
			m, err := core.NewMachine(res.Image)
			if err != nil {
				return nil, err
			}
			m.MaxSteps = DefaultMaxSteps
			return m, nil
		}
		rep, err := core.NewMachine(res.Image)
		if err != nil {
			return err
		}
		rep.MaxSteps = DefaultMaxSteps

		snap := rep.SnapshotAtTrigger(replayBudget)
		if snap == nil {
			// The program never raises its trigger (or halts first); a
			// full clean run must agree, otherwise the snapshot prologue
			// diverged from the real machine.
			full, err := newFull()
			if err != nil {
				return err
			}
			if r := full.Run(replayBudget); full.Board.TriggerCount > 0 {
				return fmt.Errorf("difftest: %s cfg %d: no snapshot captured but a full run triggers %d times (%s)\nsource:\n%s",
					name, i, full.Board.TriggerCount, runReason(r), src)
			}
			continue
		}

		for round := 0; round < 2; round++ {
			for vi, inj := range replayInjectors() {
				full, err := newFull()
				if err != nil {
					return err
				}
				full.Glitch = inj
				fr := full.Run(replayBudget)
				fex := capture(full.Board, runReason(fr))

				rep.Glitch = inj
				rr := rep.RunFrom(snap, replayBudget)
				rex := capture(rep.Board, runReason(rr))

				if fr != rr {
					return fmt.Errorf("difftest: %s injector %d round %d: replay result %+v != full-run %+v\nsource:\n%s",
						name, vi, round, rr, fr, src)
				}
				if lines := Diff(fex, rex); len(lines) > 0 {
					return fmt.Errorf("difftest: %s injector %d round %d: replay diverged from full run:\n%s\nsource:\n%s",
						name, vi, round, joinLines(lines), src)
				}
			}
		}
	}
	return nil
}
