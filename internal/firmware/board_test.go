package firmware

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"glitchlab/internal/isa"
)

func newBoard(t *testing.T) *Board {
	t.Helper()
	b, err := NewBoard()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoardMemoryMap(t *testing.T) {
	b := newBoard(t)
	for _, probe := range []struct {
		name string
		addr uint32
	}{
		{"flash", FlashBase},
		{"sram", RAMBase},
		{"gpio", GPIOBase},
		{"trigger", TriggerAddr},
		{"seed", SeedAddr},
	} {
		if _, ok := b.Mem.Region(probe.addr, 4); !ok {
			t.Errorf("%s at %#x not mapped", probe.name, probe.addr)
		}
	}
	if _, ok := b.Mem.Region(0x6000_0000, 4); ok {
		t.Error("unmapped hole is mapped")
	}
}

func TestBoardResetState(t *testing.T) {
	b := newBoard(t)
	b.Reset()
	if b.CPU.R[isa.SP] != StackTop {
		t.Errorf("sp = %#x, want %#x", b.CPU.R[isa.SP], uint32(StackTop))
	}
	if b.CPU.PC() != FlashBase {
		t.Errorf("pc = %#x, want %#x", b.CPU.PC(), uint32(FlashBase))
	}
}

func TestPowerUpPatternDeterministicAndNonZero(t *testing.T) {
	b1 := newBoard(t)
	b2 := newBoard(t)
	b1.Reset()
	b2.Reset()
	r1, _ := b1.Mem.Region(RAMBase, 4)
	r2, _ := b2.Mem.Region(RAMBase, 4)
	zero := 0
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("power-up pattern differs at %d", i)
		}
		if r1.Data[i] == 0 {
			zero++
		}
	}
	// Around 1/256 of bytes should be zero; far more would mean the
	// stack residue is unrealistically empty.
	if zero > len(r1.Data)/64 {
		t.Errorf("%d of %d power-up bytes are zero", zero, len(r1.Data))
	}
}

// TestPowerUpPatternPinned pins the SRAM power-up bytes: Reset copies a
// precomputed pattern, and every experiment's stack residue depends on it
// being exactly the splitmix stream it always was.
func TestPowerUpPatternPinned(t *testing.T) {
	b := newBoard(t)
	ram, _ := b.Mem.Region(RAMBase, 4)
	ram.Data[0] ^= 0xff // Reset must repaint what a previous run wrote
	b.Reset()
	const want = "e67bd8e0ddf343976480f59877048db170d1acf7199b1428d2e4fe1089dc3a60"
	if got := fmt.Sprintf("%x", sha256.Sum256(ram.Data)); got != want {
		t.Fatalf("power-up SRAM digest %s, want %s", got, want)
	}
}

func TestTriggerObservation(t *testing.T) {
	b := newBoard(t)
	if _, err := b.LoadSource(`
		ldr r0, trig
		movs r1, #1
		str r1, [r0]
	end:
		b end
		.align 4
	trig:
		.word 0x48000028
	`); err != nil {
		t.Fatal(err)
	}
	var hookCycle uint64
	var hookCount int
	b.OnTrigger = func(cycle uint64, count int) {
		hookCycle, hookCount = cycle, count
	}
	b.Reset()
	end := b.MustSymbol("end")
	if err := b.CPU.Run(end, 100); err != nil {
		t.Fatal(err)
	}
	if b.TriggerCount != 1 || hookCount != 1 {
		t.Errorf("trigger count = %d (hook %d), want 1", b.TriggerCount, hookCount)
	}
	// ldr(2) + movs(1) executed before the str began.
	if hookCycle != 3 {
		t.Errorf("trigger hook cycle = %d, want 3", hookCycle)
	}
}

func TestFlashWriteCharged(t *testing.T) {
	b := newBoard(t)
	if _, err := b.LoadSource(`
		ldr r0, seedaddr
		movs r1, #7
		str r1, [r0]
	end:
		b end
		.align 4
	seedaddr:
		.word 0x0800fc00
	`); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := b.CPU.Run(b.MustSymbol("end"), 100); err != nil {
		t.Fatal(err)
	}
	if b.FlashWrites != 1 {
		t.Fatalf("flash writes = %d, want 1", b.FlashWrites)
	}
	if b.CPU.Cycles < FlashWriteCycles {
		t.Errorf("cycles = %d, want >= %d (flash latency)", b.CPU.Cycles, FlashWriteCycles)
	}
	if got := b.SeedWord(); got != 7 {
		t.Errorf("seed word = %d, want 7", got)
	}
	// Flash survives reset.
	b.Reset()
	if got := b.SeedWord(); got != 7 {
		t.Errorf("seed word after reset = %d, want 7", got)
	}
}

func TestLoadRejectsOutOfFlash(t *testing.T) {
	b := newBoard(t)
	p, err := isa.Assemble(RAMBase, "nop")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(p); err == nil {
		t.Error("loading a RAM-based image into flash succeeded")
	}
}
