package core

import (
	"testing"

	"glitchlab/internal/firmware"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
)

// TestEvalFirmwareBootsUnderEveryDefense checks behaviour preservation:
// the evaluation firmware reaches boot_done under every defense set.
func TestEvalFirmwareBootsUnderEveryDefense(t *testing.T) {
	for _, cfg := range DefenseConfigs(EvalSensitive...) {
		if err := Verify(EvalFirmware, cfg, "boot_done", 50_000_000); err != nil {
			t.Errorf("%s: %v", cfg.Name(), err)
		}
	}
}

// TestGuardFirmwareCleanBehaviour checks the Table VI scenarios behave
// correctly when not glitched: the while loop spins forever; the if guard
// falls through to halt.
func TestGuardFirmwareCleanBehaviour(t *testing.T) {
	for _, cfg := range Table6Configs() {
		res, err := Compile(WhileNotAFirmware, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		r, err := RunClean(res.Image, firmware.FlashWriteCycles+30_000)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reason != pipeline.StopHung {
			t.Errorf("while(!a)/%s clean run ended %v/%q, want hung",
				cfg.Name(), r.Reason, r.Tag)
		}
		if err := Verify(IfSuccessFirmware, cfg, "halt", firmware.FlashWriteCycles+30_000); err != nil {
			t.Errorf("if(a==SUCCESS)/%s: %v", cfg.Name(), err)
		}
	}
}

// TestBranchSkipDetected forces the classic glitch — suppressing the guard
// branch so the protected path executes — and checks the redundant check
// catches it.
func TestBranchSkipDetected(t *testing.T) {
	res, err := Compile(IfSuccessFirmware, passes.AllButDelay())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	// Skip every issue slot for one cycle at a time until one lands on
	// the guard branch and diverts control into the success edge; the
	// check block must then divert to the detector.
	detected := 0
	succeeded := 0
	for cycle := 0; cycle < 120; cycle++ {
		m.Board.Reset()
		cyc := cycle
		m.Glitch = pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
			if rel == cyc {
				return pipeline.Event{Kind: pipeline.EventSkip}, true
			}
			return pipeline.Event{}, false
		})
		r := m.Run(30_000)
		switch r.Tag {
		case "success":
			succeeded++
		case passes.DetectFunc:
			detected++
		}
	}
	if detected == 0 {
		t.Error("no branch-skip attempt was detected")
	}
	if succeeded > 0 {
		t.Errorf("%d single-skip attacks beat the full defense set", succeeded)
	}
}

// TestIntegrityDetectsMemoryCorruption flips a bit in the protected global
// directly (a data-corruption glitch) and checks the next load detects it.
func TestIntegrityDetectsMemoryCorruption(t *testing.T) {
	res, err := Compile(EvalFirmware, passes.Config{
		Integrity: true, Sensitive: EvalSensitive,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run(1_000_000)
	if r.Tag != "boot_done" {
		t.Fatalf("boot ended %v/%q", r.Reason, r.Tag)
	}
	// Corrupt uwTick behind the firmware's back.
	addr := res.Image.GlobalAddrs["uwTick"]
	v, ok := m.Board.Mem.ReadWord(addr)
	if !ok {
		t.Fatal("uwTick unreadable")
	}
	if err := m.Board.Mem.Write(addr, []byte{
		byte(v) ^ 0x04, byte(v >> 8), byte(v >> 16), byte(v >> 24),
	}); err != nil {
		t.Fatal(err)
	}
	// The machine is parked on the boot_done stop; disarm it so the run
	// can proceed into the main loop, where the next load must detect the
	// mismatch.
	if bd, ok := res.Image.Symbol("boot_done"); ok {
		delete(m.Stops, bd)
	}
	r = m.Run(m.Board.CPU.Cycles + 100_000)
	if r.Reason != pipeline.StopHit || r.Tag != passes.DetectFunc {
		t.Fatalf("after corruption: %v/%q, want detection", r.Reason, r.Tag)
	}
}

// TestDelayRandomizesTiming checks the random-delay defense changes cycle
// timing between boots (the persisted seed increments), which is what
// breaks glitch parameter tuning.
func TestDelayRandomizesTiming(t *testing.T) {
	res, err := Compile(EvalFirmware, passes.Config{Delay: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	var bootCycles []uint64
	var seeds []uint32
	for i := 0; i < 3; i++ {
		m.Board.Reset()
		r := m.Run(50_000_000)
		if r.Tag != "boot_done" {
			t.Fatalf("boot %d ended %v/%q", i, r.Reason, r.Tag)
		}
		bootCycles = append(bootCycles, r.Cycles)
		seeds = append(seeds, m.Board.SeedWord())
	}
	if seeds[0]+1 != seeds[1] || seeds[1]+1 != seeds[2] {
		t.Errorf("seed not incremented across boots: %v", seeds)
	}
	if bootCycles[0] == bootCycles[1] && bootCycles[1] == bootCycles[2] {
		t.Errorf("boot timing identical across boots: %v", bootCycles)
	}
}

func TestTable4Shape(t *testing.T) {
	t4, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(t4.Rows))
	}
	base := t4.Baseline()
	if base == 0 {
		t.Fatal("no baseline row")
	}
	byName := map[string]BootRow{}
	for _, r := range t4.Rows {
		byName[r.Name] = r
		if r.Cycles < base {
			t.Errorf("%s boots faster than baseline", r.Name)
		}
	}
	// The delay defense must dominate via its one-time flash constant,
	// and the adjusted column must remove it (paper's analysis).
	delay := byName["Delay"]
	if delay.Constant == 0 {
		t.Error("delay row has no flash constant")
	}
	if t4.Adjusted(delay) >= t4.Increase(delay) {
		t.Error("adjusted increase not below raw increase for Delay")
	}
	if byName["All"].Cycles <= byName["All\\Delay"].Cycles {
		t.Error("All should cost more than All\\Delay")
	}
	// Cheap defenses stay cheap, as in the paper.
	if t4.Increase(byName["Returns"]) > 20 {
		t.Errorf("Returns overhead %.1f%% unexpectedly high",
			t4.Increase(byName["Returns"]))
	}
}

func TestTable5Shape(t *testing.T) {
	t5, err := RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(t5.Rows))
	}
	base := t5.Baseline()
	byName := map[string]SizeRow{}
	for _, r := range t5.Rows {
		byName[r.Name] = r
		if r.Sizes.Text < base.Text {
			t.Errorf("%s text smaller than baseline", r.Name)
		}
	}
	if byName["All"].Sizes.Total() <= byName["All\\Delay"].Sizes.Total() {
		t.Error("All should be bigger than All\\Delay")
	}
	// Integrity and Delay add bss (shadow word / seed state).
	if byName["Integrity"].Sizes.BSS <= base.BSS {
		t.Error("Integrity added no bss")
	}
	if byName["Delay"].Sizes.BSS <= base.BSS {
		t.Error("Delay added no bss")
	}
	// Returns only swaps constants: near-zero text growth (paper: 0.06%).
	if growth := byName["Returns"].Sizes.Text - base.Text; growth > 64 {
		t.Errorf("Returns text growth %d bytes unexpectedly large", growth)
	}
}

// TestTable6BestCaseCell runs the cheapest Table VI cell in full and
// checks the paper's headline: single-glitch attacks against the
// RS-hardened if guard are nearly always stopped, with high detection.
func TestTable6BestCaseCell(t *testing.T) {
	model := glitcher.NewModel(DefaultSeed)
	sc := Table6Scenarios()[1] // if(a==SUCCESS)
	cell, err := RunTable6Cell(model, sc, passes.AllButDelay(), AttackSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Total != 11*glitcher.GridSize {
		t.Fatalf("total = %d, want %d", cell.Total, 11*glitcher.GridSize)
	}
	if cell.SuccessRate() > 0.0002 {
		t.Errorf("success rate %.6f%% too high for the best case",
			100*cell.SuccessRate())
	}
	if cell.DetectionRate() < 0.9 {
		t.Errorf("detection rate %.1f%% too low", 100*cell.DetectionRate())
	}
}

func TestDefenseConfigNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, cfg := range DefenseConfigs("x") {
		name := cfg.Name()
		if seen[name] {
			t.Errorf("duplicate config name %q", name)
		}
		seen[name] = true
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("void main(void { }", passes.None()); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := Compile("void notmain(void) { }", passes.None()); err == nil {
		t.Error("missing main accepted")
	}
	if _, err := Compile(EvalFirmware, passes.All("nosuchvar")); err == nil {
		t.Error("unknown sensitive global accepted")
	}
}
