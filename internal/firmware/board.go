// Package firmware models the target board the paper glitches: an
// STM32-style Cortex-M0 microcontroller with flash, SRAM, a GPIO port used
// as the glitch trigger, and a flash-programming interface whose latency
// dominates the random-delay defense's boot cost.
//
// The memory map follows the paper's observed values: SP boots to the top
// of a 16 KiB SRAM at 0x2000_0000 (so the stacked values the paper reports,
// e.g. 0x20003FE8, arise naturally) and the trigger GPIO output data
// register is at 0x4800_0028.
package firmware

import (
	"fmt"

	"glitchlab/internal/emu"
	"glitchlab/internal/isa"
)

// Memory map constants.
const (
	FlashBase = 0x0800_0000
	FlashSize = 0x0001_0000 // 64 KiB
	RAMBase   = 0x2000_0000
	RAMSize   = 0x0000_4000 // 16 KiB
	StackTop  = RAMBase + RAMSize
	GPIOBase  = 0x4800_0000
	GPIOSize  = 0x0000_0400
	// TriggerAddr is the GPIO output data register the firmware writes to
	// raise the glitcher's trigger line (the paper's 0x48000028).
	TriggerAddr = GPIOBase + 0x28

	// SeedAddr is the flash word holding the random-delay defense's
	// persisted PRNG seed (last page of flash).
	SeedAddr = FlashBase + FlashSize - 0x400

	// FlashWriteCycles models the stall for programming one flash word
	// including the page-erase the seed update needs. STM32F3 flash
	// programming plus erase takes multiple milliseconds; at 48 MHz and
	// with the HAL's polling loops the paper measured a constant cost of
	// ~178k cycles for the seed update, which this reproduces.
	FlashWriteCycles = 88900
)

// Board is a reset-able microcontroller model.
type Board struct {
	Mem   *emu.Memory
	CPU   *emu.CPU
	flash *emu.Region

	prog *isa.Program

	// TriggerCount is the number of trigger writes observed since reset.
	TriggerCount int
	// TriggerCycle is the CPU cycle at which the most recent trigger
	// write retired.
	TriggerCycle uint64
	// OnTrigger, if set, is called at each trigger write.
	OnTrigger func(cycle uint64, count int)

	// FlashWrites counts stores into the flash region since reset (each
	// is charged FlashWriteCycles).
	FlashWrites int
}

// NewBoard creates a board with the standard memory map.
func NewBoard() (*Board, error) {
	mem := emu.NewMemory()
	// Flash is writable so the seed-update code can program it; writes
	// are charged the programming latency via the store hook.
	flash, err := mem.Map("flash", FlashBase, FlashSize,
		emu.PermRead|emu.PermWrite|emu.PermExec)
	if err != nil {
		return nil, err
	}
	if _, err := mem.Map("sram", RAMBase, RAMSize, emu.PermRead|emu.PermWrite); err != nil {
		return nil, err
	}
	if _, err := mem.Map("gpio", GPIOBase, GPIOSize, emu.PermRead|emu.PermWrite); err != nil {
		return nil, err
	}
	b := &Board{Mem: mem, CPU: emu.New(mem), flash: flash}
	b.CPU.Hooks.OnStore = b.onStore
	return b, nil
}

func (b *Board) onStore(addr, size, val uint32) {
	switch {
	case addr == TriggerAddr:
		b.TriggerCount++
		b.TriggerCycle = b.CPU.Cycles
		if b.OnTrigger != nil {
			b.OnTrigger(b.CPU.Cycles, b.TriggerCount)
		}
	case addr >= FlashBase && addr < FlashBase+FlashSize:
		b.FlashWrites++
		b.CPU.Cycles += FlashWriteCycles
	}
}

// Load writes a program image into flash. The program must be based within
// the flash region.
func (b *Board) Load(prog *isa.Program) error {
	if prog.Base < FlashBase || prog.Base+uint32(len(prog.Code)) > FlashBase+FlashSize {
		return fmt.Errorf("firmware: program at %#x does not fit in flash", prog.Base)
	}
	if err := b.Mem.Write(prog.Base, prog.Code); err != nil {
		return err
	}
	b.prog = prog
	return nil
}

// LoadSource assembles src at the flash base and loads it.
func (b *Board) LoadSource(src string) (*isa.Program, error) {
	prog, err := isa.Assemble(FlashBase, src)
	if err != nil {
		return nil, err
	}
	if err := b.Load(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// Reset returns the CPU to its boot state (SP at the top of SRAM, PC at the
// flash base), restores SRAM to its power-up pattern and clears trigger
// bookkeeping. Flash contents are preserved, as on real hardware.
//
// SRAM is deliberately not zeroed: real SRAM powers up holding
// pseudo-random garbage, and the paper's post-mortem register values
// (0x55, 0x68, 0xFF, ...) are stack residue read by corrupted loads. A
// zero-filled SRAM would make while(!a) artificially glitch-resistant,
// because wrong-address loads would all return zero. Firmware that needs
// zeroed memory zeroes its own .bss, exactly as on hardware.
func (b *Board) Reset() {
	b.CPU.Reset(StackTop, FlashBase)
	b.TriggerCount = 0
	b.TriggerCycle = 0
	b.FlashWrites = 0
	if ram, ok := b.Mem.Region(RAMBase, 4); ok {
		copy(ram.Data, powerUpRAM[:])
	}
	if gpio, ok := b.Mem.Region(GPIOBase, 4); ok {
		clear(gpio.Data)
	}
}

// powerUpRAM is the deterministic power-up garbage pattern Reset copies
// into SRAM, computed once. A fixed seed keeps every experiment exactly
// reproducible while giving the stack realistic non-zero residue.
var powerUpRAM = func() (data [RAMSize]byte) {
	x := uint64(0x5eed0f2a)
	for i := range data {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		data[i] = byte(z ^ (z >> 31))
	}
	return data
}()

// Symbol returns a program symbol's address.
func (b *Board) Symbol(name string) (uint32, bool) {
	if b.prog == nil {
		return 0, false
	}
	return b.prog.SymbolAddr(name)
}

// MustSymbol is Symbol for symbols the caller knows exist; it panics on
// missing symbols, indicating a programming error in experiment setup.
func (b *Board) MustSymbol(name string) uint32 {
	a, ok := b.Symbol(name)
	if !ok {
		panic(fmt.Sprintf("firmware: undefined symbol %q", name))
	}
	return a
}

// SeedWord reads the persisted PRNG seed from flash.
func (b *Board) SeedWord() uint32 {
	v, _ := b.Mem.ReadWord(SeedAddr)
	return v
}
