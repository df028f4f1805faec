package glitcher

import (
	"math"
	"sync"
	"testing"

	"glitchlab/internal/pipeline"
)

func TestGridSize(t *testing.T) {
	n := 0
	seen := map[Params]bool{}
	Grid(func(p Params) {
		n++
		if seen[p] {
			t.Fatalf("duplicate grid point %+v", p)
		}
		seen[p] = true
		if p.Width < -ParamRange || p.Width > ParamRange ||
			p.Offset < -ParamRange || p.Offset > ParamRange {
			t.Fatalf("grid point out of range: %+v", p)
		}
	})
	if n != GridSize || GridSize != 9801 {
		t.Fatalf("grid has %d points, want 9801", n)
	}
}

func TestStrengthBounds(t *testing.T) {
	m := NewModel(1)
	Grid(func(p Params) {
		s := m.strength(p)
		if s < 0 || s > 1 {
			t.Fatalf("strength(%+v) = %f", p, s)
		}
	})
}

// TestStrengthTableBitIdentical checks the memoized strength against the
// direct computation bit for bit, with the table filled by racing
// goroutines (run under -race in ci.sh) and rebuilt after a seed change.
func TestStrengthTableBitIdentical(t *testing.T) {
	m := NewModel(0xC1A55)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Grid(func(p Params) { m.strengthAt(p) })
		}()
	}
	wg.Wait()
	for _, seed := range []uint64{0xC1A55, 7} {
		m.Seed = seed
		ref := NewModel(seed)
		for pass := 0; pass < 2; pass++ { // fill, then read back
			Grid(func(p Params) {
				if got, want := m.strengthAt(p), ref.strength(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d %+v: table %v != direct %v", seed, p, got, want)
				}
			})
		}
	}
	off := Params{Width: ParamRange + 1}
	if got, want := m.strengthAt(off), m.strength(off); got != want {
		t.Errorf("off-grid %+v: %v != %v", off, got, want)
	}
}

func TestModelDeterminism(t *testing.T) {
	m1 := NewModel(42)
	m2 := NewModel(42)
	Grid(func(p Params) {
		for rel := 0; rel < 8; rel += 3 {
			e1, ok1 := m1.EventAt(p, rel, 0)
			e2, ok2 := m2.EventAt(p, rel, 0)
			if ok1 != ok2 || e1 != e2 {
				t.Fatalf("model not deterministic at %+v rel=%d", p, rel)
			}
		}
	})
}

func TestSeedChangesLandscape(t *testing.T) {
	m1 := NewModel(1)
	m2 := NewModel(2)
	diff := 0
	Grid(func(p Params) {
		_, ok1 := m1.EventAt(p, 0, 0)
		_, ok2 := m2.EventAt(p, 0, 0)
		if ok1 != ok2 {
			diff++
		}
	})
	if diff == 0 {
		t.Fatal("different seeds produced identical event landscapes")
	}
}

func TestSecondWindowRepeatsFirst(t *testing.T) {
	// When the generator recovers, the second delivery of the same
	// glitch must produce the identical corruption — the physical basis
	// of the paper's multi-glitch experiment.
	m := NewModel(7)
	checked := 0
	Grid(func(p Params) {
		e0, ok0 := m.EventAt(p, 4, 0)
		e1, ok1 := m.EventAt(p, 4, 1)
		if !ok0 || !ok1 {
			return
		}
		checked++
		if e0 != e1 {
			t.Fatalf("window 1 event differs at %+v: %+v vs %+v", p, e0, e1)
		}
	})
	if checked == 0 {
		t.Fatal("no parameter point delivered in both windows")
	}
}

func TestRechargeGatesSecondWindow(t *testing.T) {
	m := NewModel(7)
	var first, second int
	Grid(func(p Params) {
		if _, ok := m.EventAt(p, 4, 0); ok {
			first++
		}
		if _, ok := m.EventAt(p, 4, 1); ok {
			second++
		}
	})
	if first == 0 {
		t.Fatal("no events in first window")
	}
	ratio := float64(second) / float64(first)
	if ratio > m.Recharge+0.15 || ratio < m.Recharge-0.15 {
		t.Errorf("second/first window delivery ratio = %.2f, want ~%.2f",
			ratio, m.Recharge)
	}
}

func TestSustainedPhysicsDiffers(t *testing.T) {
	// Sustained collapse events must force loads to zero rather than
	// capture residue.
	m := NewModel(7)
	residue, starved := 0, 0
	Grid(func(p Params) {
		if m.character(p) != charCollapse {
			return
		}
		if ev, ok := m.EventInContext(p, 5, 0, 0); ok &&
			ev.Kind == pipeline.EventDataCorrupt && ev.DataResidue {
			residue++
		}
		if ev, ok := m.EventInContext(p, 5, 0, 5); ok &&
			ev.Kind == pipeline.EventDataCorrupt {
			if ev.DataResidue {
				t.Fatalf("sustained collapse at %+v still captures residue", p)
			}
			if ev.DataMask == 0xFFFFFFFF && !ev.DataSet {
				starved++
			}
		}
	})
	if residue == 0 || starved == 0 {
		t.Fatalf("residue=%d starved=%d; expected both behaviours", residue, starved)
	}
}

func TestResidueValuesComeFromPalette(t *testing.T) {
	baseline := map[uint32]bool{
		0x55: true, 0xFF: true, 0x68: true, 0x21: true, 0x08: true,
		0x20003FE8: true, 0x48000028: true, 0x48000028 ^ 0x6000432F: true,
	}
	for h := uint64(0); h < 4096; h++ {
		v := residueValue(h)
		if baseline[v] {
			continue
		}
		// Allow single-bit decay of a palette value.
		ok := false
		for b := range baseline {
			x := b ^ v
			if x != 0 && x&(x-1) == 0 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("residueValue(%d) = %#x not near palette", h, v)
		}
	}
}

func TestGuardSourcesAssembleAndHang(t *testing.T) {
	for _, g := range Guards() {
		for name, src := range map[string]string{
			"single": g.SingleLoopSource(),
			"double": g.DoubleLoopSource(),
			"long":   g.LongGlitchSource(),
		} {
			tgt, err := NewTarget(g, src)
			if err != nil {
				t.Fatalf("%v %s: %v", g, name, err)
			}
			if r := tgt.CleanRun(); r.Reason != pipeline.StopHung {
				t.Errorf("%v %s clean run: %v, want hung", g, name, r.Reason)
			}
		}
	}
}

func TestComparatorRegs(t *testing.T) {
	if GuardWhileNotA.ComparatorReg() != 3 || GuardWhileA.ComparatorReg() != 3 {
		t.Error("byte guards compare in R3")
	}
	if GuardWhileNeq.ComparatorReg() != 2 {
		t.Error("word guard compares in R2")
	}
}

// TestTable1Headline runs the full Table I scans and checks the paper's
// headline orderings: while(!a) is the most vulnerable guard and while(a)
// the most resilient, with sub-percent absolute rates.
func TestTable1Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter scan")
	}
	m := NewModel(1)
	rates := map[Guard]float64{}
	for _, g := range Guards() {
		res, err := m.RunTable1(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempts != LoopCycles*GridSize {
			t.Fatalf("%v attempts = %d, want %d", g, res.Attempts, LoopCycles*GridSize)
		}
		rates[g] = res.SuccessRate()
		if rates[g] <= 0 || rates[g] > 0.03 {
			t.Errorf("%v success rate %.4f%% outside sub-percent band", g, 100*rates[g])
		}
		if res.UniqueValues() < 2 {
			t.Errorf("%v post-mortem values not diverse: %d", g, res.UniqueValues())
		}
	}
	if !(rates[GuardWhileNotA] > rates[GuardWhileNeq] &&
		rates[GuardWhileNeq] > rates[GuardWhileA]) {
		t.Errorf("guard vulnerability ordering wrong: %v", rates)
	}
	// The paper: while(!a) was 2x more susceptible than while(a).
	if rates[GuardWhileNotA] < 2*rates[GuardWhileA] {
		t.Errorf("while(!a) %.4f%% not ~2x while(a) %.4f%%",
			100*rates[GuardWhileNotA], 100*rates[GuardWhileA])
	}
}

// TestTable2MultiGlitchHarder verifies the paper's Section V-C claim: a
// full multi-glitch is meaningfully harder than a partial one.
func TestTable2MultiGlitchHarder(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter scan")
	}
	m := NewModel(1)
	for _, g := range Guards() {
		res, err := m.RunTable2(g)
		if err != nil {
			t.Fatal(err)
		}
		partial, full := res.Totals()
		if full == 0 {
			t.Errorf("%v: no full multi-glitches at all", g)
			continue
		}
		if full >= partial+full {
			t.Errorf("%v: full (%d) not rarer than attempts succeeding once (%d)",
				g, full, partial+full)
		}
		// Reduction factor vs single-glitch success, paper: 1.6x-6x.
		factor := float64(partial+full) / float64(full)
		if factor < 1.2 || factor > 12 {
			t.Errorf("%v: multi-glitch reduction factor %.1fx outside plausible band", g, factor)
		}
	}
}

// TestTable3LongGlitchInversion verifies the paper's Section V-D finding:
// long glitches help against while(a) but hurt against while(!a).
func TestTable3LongGlitchInversion(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter scan")
	}
	m := NewModel(1)
	longRates := map[Guard]float64{}
	singleRates := map[Guard]float64{}
	for _, g := range Guards() {
		r3, err := m.RunTable3(g)
		if err != nil {
			t.Fatal(err)
		}
		longRates[g] = float64(r3.Total()) / float64(r3.Attempts)
		r1, err := m.RunTable1(g)
		if err != nil {
			t.Fatal(err)
		}
		singleRates[g] = r1.SuccessRate()
	}
	if longRates[GuardWhileA] <= longRates[GuardWhileNotA] {
		t.Errorf("long glitch should favor while(a): %v", longRates)
	}
	if longRates[GuardWhileNotA] >= singleRates[GuardWhileNotA] {
		t.Errorf("while(!a) long rate %.4f should drop below single rate %.4f",
			longRates[GuardWhileNotA], singleRates[GuardWhileNotA])
	}
	if longRates[GuardWhileA] <= 3*singleRates[GuardWhileA] {
		t.Errorf("while(a) long rate %.4f should rise well above single rate %.4f",
			longRates[GuardWhileA], singleRates[GuardWhileA])
	}
}

// TestTable1KindAttribution checks the mechanism analysis: every success
// is attributed to exactly one corruption kind, and while(!a)'s successes
// include data-bus corruptions (the paper's "register data corrupted"
// mechanism) while pure instruction effects appear too.
func TestTable1KindAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter scan")
	}
	m := NewModel(1)
	res, err := m.RunTable1(GuardWhileNotA)
	if err != nil {
		t.Fatal(err)
	}
	kinds := res.KindBreakdown()
	var sum uint64
	for _, n := range kinds {
		sum += n
	}
	if sum != res.Successes {
		t.Fatalf("attributed %d of %d successes", sum, res.Successes)
	}
	if kinds[pipeline.EventDataCorrupt] == 0 {
		t.Error("no data-corruption successes against while(!a)")
	}
	if kinds[pipeline.EventFetchCorrupt]+kinds[pipeline.EventExecCorrupt]+
		kinds[pipeline.EventSkip] == 0 {
		t.Error("no instruction-level successes against while(!a)")
	}
}
