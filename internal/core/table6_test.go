package core

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"

	"glitchlab/internal/firmware"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
)

// oracleStride picks every oracleStride-th executed attempt of a cell for
// the fresh-board oracle: a deterministic sample that still reaches a few
// dozen attempts in the sparsest (Single) cells.
const oracleStride = 97

// freshAttempt reruns one Table VI attempt the reference way: a fresh
// board whose flash seed word is preset to the attempt index, a full Run
// from reset, no snapshot and no early stop.
func freshAttempt(t *testing.T, model *glitcher.Model, cr *CompileResult, a table6Attempt) pipeline.Result {
	t.Helper()
	m, err := NewMachine(cr.Image)
	if err != nil {
		t.Fatal(err)
	}
	var seed [4]byte
	binary.LittleEndian.PutUint32(seed[:], a.N)
	if err := m.Board.Mem.Write(firmware.SeedAddr, seed[:]); err != nil {
		t.Fatal(err)
	}
	m.Glitch = model.RangePlan(a.P, a.From, a.To)
	return m.Run(a.Budget)
}

func sameClass(a, b pipeline.Result) bool { return a.Reason == b.Reason && a.Tag == b.Tag }

// TestTable6AttemptIndependence is the attempt-independence oracle: in
// every Table VI cell, a stride of the attempts the cell executes in
// sequence (snapshot restore, explicit seed, loop-cycle stop) must be
// classified exactly as on a fresh board with the flash seed word preset
// to the attempt's index and a full run.
func TestTable6AttemptIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 Table VI cells")
	}
	model := glitcher.NewModel(DefaultSeed)
	for _, sc := range Table6Scenarios() {
		for _, cfg := range Table6Configs(sc.Sensitive...) {
			cr, err := Compile(sc.Source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, attack := range Attacks() {
				var picked []table6Attempt
				executed := 0
				if _, err := runTable6Cell(model, sc, cfg, attack, nil, func(a table6Attempt) {
					if executed%oracleStride == 0 {
						picked = append(picked, a)
					}
					executed++
				}); err != nil {
					t.Fatal(err)
				}
				if len(picked) < 20 {
					t.Fatalf("%s/%s/%s: only %d attempts sampled", sc.Name, cfg.Name(), attack, len(picked))
				}
				for _, a := range picked {
					if want := freshAttempt(t, model, cr, a); !sameClass(a.Result, want) {
						t.Errorf("%s/%s/%s attempt %d %+v [%d,%d): got %v/%q, fresh board %v/%q",
							sc.Name, cfg.Name(), attack, a.N, a.P, a.From, a.To,
							a.Result.Reason, a.Result.Tag, want.Reason, want.Tag)
					}
				}
			}
		}
	}
}

// TestTable6StrayFlashStoreDoesNotLeak pins the bug attempt independence
// fixes: an attempt whose glitched code stores into flash must leave the
// next executed attempt exactly as a fresh board would run it.
func TestTable6StrayFlashStoreDoesNotLeak(t *testing.T) {
	model := glitcher.NewModel(DefaultSeed)
	sc := Table6Scenarios()[0] // while(!a)
	cfg := passes.AllButDelay(sc.Sensitive...)
	cr, err := Compile(sc.Source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stray []table6Attempt // pairs: (attempt i, attempt i+1)
	prevStray := false
	if _, err := runTable6Cell(model, sc, cfg, AttackLong, nil, func(a table6Attempt) {
		if prevStray {
			stray = append(stray, a)
		}
		prevStray = a.FlashWrites > 0
		if prevStray {
			stray = append(stray, a)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(stray) < 2 {
		t.Fatal("no attempt stored into flash; the regression test lost its subject")
	}
	for i := 0; i+1 < len(stray); i += 2 {
		for _, a := range stray[i : i+2] {
			if want := freshAttempt(t, model, cr, a); !sameClass(a.Result, want) {
				t.Errorf("attempt %d %+v [%d,%d): got %v/%q, fresh board %v/%q",
					a.N, a.P, a.From, a.To, a.Result.Reason, a.Result.Tag, want.Reason, want.Tag)
			}
		}
	}
}

// TestTable6FullRunMatchesReplay checks the reference path (Model.FullRun)
// against the default engine on one delay-build cell, count for count.
func TestTable6FullRunMatchesReplay(t *testing.T) {
	sc := Table6Scenarios()[1] // if(a==SUCCESS)
	cfg := passes.All(sc.Sensitive...)
	fast, err := RunTable6Cell(glitcher.NewModel(DefaultSeed), sc, cfg, AttackSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := glitcher.NewModel(DefaultSeed)
	ref.FullRun = true
	full, err := RunTable6Cell(ref, sc, cfg, AttackSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast != full {
		t.Fatalf("replay %+v != full run %+v", fast, full)
	}
}

// TestTable6CellsConcurrent runs two Table VI cells at once on one shared
// model, as RunTable6 does with more than one worker, and requires the
// counts of separate serial runs: cells share no mutable state (ci.sh
// runs this under the race detector).
func TestTable6CellsConcurrent(t *testing.T) {
	sc := Table6Scenarios()[1] // if(a==SUCCESS): its Single cells are the cheapest
	cfgs := Table6Configs(sc.Sensitive...)
	want := make([]Table6Cell, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = RunTable6Cell(glitcher.NewModel(DefaultSeed), sc, cfg, AttackSingle, nil); err != nil {
			t.Fatal(err)
		}
	}
	model := glitcher.NewModel(DefaultSeed)
	got := make([]Table6Cell, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunTable6Cell(model, sc, cfg, AttackSingle, nil)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("%s: concurrent cell %+v, serial %+v", cfgs[i].Name(), got[i], want[i])
		}
	}
}

// TestTable6DelayHangsStopEarly pins the seed-quotient loop stop's reach
// on a delay build: in while(!a) All Single at least 90% of the hangs end
// before their budget (none did before the quotient), and the cell still
// counts exactly as the reference path that runs every attempt from
// reset to its budget.
func TestTable6DelayHangsStopEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Table VI cell twice, once on the reference path")
	}
	sc := Table6Scenarios()[0] // while(!a)
	cfg := passes.All(sc.Sensitive...)
	hangs, early := 0, 0
	fast, err := runTable6Cell(glitcher.NewModel(DefaultSeed), sc, cfg, AttackSingle, nil, func(a table6Attempt) {
		if a.Result.Reason == pipeline.StopHung {
			hangs++
			if a.Result.Cycles < a.Budget {
				early++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hangs == 0 || early*10 < hangs*9 {
		t.Errorf("%d of %d hangs stopped early, want at least 90%%", early, hangs)
	}
	ref := glitcher.NewModel(DefaultSeed)
	ref.FullRun = true
	full, err := RunTable6Cell(ref, sc, cfg, AttackSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast != full {
		t.Errorf("replay %+v != full run %+v", fast, full)
	}
}

// TestTable6LongPrefilter checks the Long attack's one-scan prefilter:
// in every Long cell the attempts executed are exactly those whose span
// delivers an event by the per-span scan, numbered in the same grid
// order.
func TestTable6LongPrefilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four Long cells")
	}
	model := glitcher.NewModel(DefaultSeed)
	var want []uint32
	n := uint32(0)
	for to := 10; to <= 100; to += 10 {
		glitcher.Grid(func(p glitcher.Params) {
			for rel := 0; rel < to; rel++ {
				if _, hit := model.EventInContext(p, rel, 0, rel); hit {
					want = append(want, n)
					break
				}
			}
			n++
		})
	}
	for _, sc := range Table6Scenarios() {
		for _, cfg := range Table6Configs(sc.Sensitive...) {
			var got []uint32
			if _, err := runTable6Cell(model, sc, cfg, AttackLong, nil, func(a table6Attempt) {
				got = append(got, a.N)
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: executed %d attempts, the per-span scan %d (or a different set)",
					sc.Name, cfg.Name(), len(got), len(want))
			}
		}
	}
}
