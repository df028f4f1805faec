package search

import (
	"testing"

	"glitchlab/internal/glitcher"
)

func TestFindReliableParameters(t *testing.T) {
	// Section V-B: the search must locate a single-cycle glitch with
	// 10/10 reliability against both while(a) and the large-Hamming
	// comparison, as the paper's tuning did.
	m := glitcher.NewModel(1)
	for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		s, err := New(m, g)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Find()
		if !res.Found {
			t.Fatalf("%v: %s", g, res)
		}
		if res.Cycle < 0 || res.Cycle >= glitcher.LoopCycles {
			t.Errorf("%v: cycle %d out of range", g, res.Cycle)
		}
		if res.Successes < Confirmations {
			t.Errorf("%v: only %d successes recorded", g, res.Successes)
		}
		// Re-verify the winning parameters independently.
		tgt, err := glitcher.NewTarget(g, g.SingleLoopSource())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < Confirmations; i++ {
			r := tgt.Attempt(m.Plan(res.Params, res.Cycle))
			if r.Tag != "exit" {
				t.Fatalf("%v: winning params failed on confirmation %d", g, i)
			}
		}
	}
}

func TestFindIsDeterministic(t *testing.T) {
	m := glitcher.NewModel(3)
	s1, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s1.Find(), s2.Find()
	if r1.Found != r2.Found || r1.Params != r2.Params || r1.Cycle != r2.Cycle ||
		r1.Attempts != r2.Attempts {
		t.Fatalf("search not deterministic: %s vs %s", r1, r2)
	}
}

// TestFindCycleWithinLoop is the regression test for the phase-2 clamp:
// the narrowing loop used to iterate up to coarseCycles (10), two cycles
// past the 8-cycle loop, and a plan at cycle >= LoopCycles aliases into
// the next loop iteration (the pipeline's relative clock never wraps). A
// winning cycle must therefore always lie inside the first iteration.
func TestFindCycleWithinLoop(t *testing.T) {
	seeds := uint64(5)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		m := glitcher.NewModel(seed)
		for _, g := range []glitcher.Guard{
			glitcher.GuardWhileNotA, glitcher.GuardWhileA, glitcher.GuardWhileNeq,
		} {
			s, err := New(m, g)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Find()
			if !res.Found {
				continue
			}
			if res.Cycle >= glitcher.LoopCycles {
				t.Errorf("seed %d %v: winning cycle %d aliases past the %d-cycle loop",
					seed, g, res.Cycle, glitcher.LoopCycles)
			}
		}
	}
}

// TestFindStopsAfterSuccess is the regression test for the full-grid
// iteration bug: Find used to keep walking the remaining parameter points
// after locating a reliable point, burning one coarse attempt on each. A
// successful search must attempt strictly fewer points than an
// exhaustive coarse scan of the whole grid plus the narrowing overhead.
func TestFindStopsAfterSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid coarse scan")
	}
	m := glitcher.NewModel(1)
	s, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Find()
	if !res.Found {
		t.Fatalf("no reliable point found: %s", res)
	}
	e, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	exhaust := e.Exhaust()
	if res.Attempts >= exhaust.Attempts {
		t.Errorf("Find fired %d attempts, not fewer than the %d of a full coarse scan — grid not stopped on success",
			res.Attempts, exhaust.Attempts)
	}
}

func TestExhaustCountsSuccesses(t *testing.T) {
	m := glitcher.NewModel(1)
	s, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Exhaust()
	if res.Attempts != glitcher.GridSize {
		t.Fatalf("attempts = %d, want %d", res.Attempts, glitcher.GridSize)
	}
	if res.CoarseHits == 0 {
		t.Fatal("coarse scan found no successes")
	}
	if res.CoarseHits != res.Successes {
		t.Fatalf("hits %d != successes %d", res.CoarseHits, res.Successes)
	}
}
