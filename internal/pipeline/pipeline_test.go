package pipeline

import (
	"testing"

	"glitchlab/internal/emu"
	"glitchlab/internal/firmware"
)

// guardSource is a minimal while(!a)-style loop with a trigger, used to
// exercise the machine. Loop body: mov(1) adds(1) ldrb(2) cmp(1) beq(3).
const guardSource = `
	sub sp, #8
	movs r3, #0
	mov r2, sp
	strb r3, [r2, #7]
	ldr r0, trig
	movs r1, #1
	str r1, [r0]
loop:
	mov r3, sp
	adds r3, #7
	ldrb r3, [r3]
	cmp r3, #0
	beq loop
exit:
	b exit
	.align 4
trig:
	.word 0x48000028
`

func newGuardMachine(t *testing.T) *Machine {
	t.Helper()
	b, err := firmware.NewBoard()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadSource(guardSource); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(b)
	m.AddStopSymbol("exit")
	b.Reset()
	return m
}

func TestCleanRunLoopsForever(t *testing.T) {
	m := newGuardMachine(t)
	r := m.Run(500)
	if r.Reason != StopHung {
		t.Fatalf("clean run: %v (tag %q), want hung", r.Reason, r.Tag)
	}
	if m.Board.TriggerCount != 1 {
		t.Errorf("trigger count = %d, want 1", m.Board.TriggerCount)
	}
}

func TestSkipEventEscapesLoop(t *testing.T) {
	// Skipping the conditional branch (cycles 5-7 of the loop) must fall
	// through to exit. The skip must target the branch's issue slot: the
	// glitch lands at cycle 5, the branch's first execute cycle.
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 5 {
			return Event{Kind: EventSkip}, true
		}
		return Event{}, false
	})
	r := m.Run(500)
	if r.Reason != StopHit || r.Tag != "exit" {
		t.Fatalf("skip glitch: %v (tag %q), want exit hit", r.Reason, r.Tag)
	}
}

func TestDataCorruptEscapesLoop(t *testing.T) {
	// Corrupting the LDRB's data (cycles 2-3) to a non-zero value breaks
	// while(!a).
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 2 {
			return Event{Kind: EventDataCorrupt, DataResidue: true, DataValue: 0x55}, true
		}
		return Event{}, false
	})
	r := m.Run(500)
	if r.Reason != StopHit {
		t.Fatalf("data glitch: %v, want exit hit", r.Reason)
	}
	if r.Regs[3] != 0x55 {
		t.Errorf("post-mortem r3 = %#x, want 0x55", r.Regs[3])
	}
}

func TestDataCorruptZeroHasNoEffectOnWhileNotA(t *testing.T) {
	// Forcing the load to zero keeps while(!a) looping: the exit needs a
	// non-zero value.
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 2 {
			return Event{Kind: EventDataCorrupt, DataMask: 0xFFFFFFFF}, true
		}
		return Event{}, false
	})
	if r := m.Run(500); r.Reason != StopHung {
		t.Fatalf("zeroing glitch: %v, want hung", r.Reason)
	}
}

func TestFetchCorruptHitsTwoSlotsLater(t *testing.T) {
	// A fetch-stage corruption at the MOV's cycle (rel 0) must corrupt
	// the instruction two issue slots later (the LDRB), not the MOV.
	// Clearing all bits turns the LDRB into an effective NOP, so R3
	// keeps the address value SP+7 — and the loop exits because the
	// address is non-zero.
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 0 && window == 0 {
			return Event{Kind: EventFetchCorrupt, InstMask: 0xFFFF}, true
		}
		return Event{}, false
	})
	r := m.Run(500)
	if r.Reason != StopHit {
		t.Fatalf("fetch glitch: %v, want exit", r.Reason)
	}
	wantR3 := uint32(firmware.StackTop) - 8 + 7
	if r.Regs[3] != wantR3 {
		t.Errorf("r3 = %#x, want %#x (nop'd load leaves the address)", r.Regs[3], wantR3)
	}
}

func TestExecCorruptHitsCurrentSlot(t *testing.T) {
	// An execute-stage corruption at the branch's first cycle (rel 5)
	// zeroes the BEQ itself, falling through immediately.
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 5 {
			return Event{Kind: EventExecCorrupt, InstMask: 0xFFFF}, true
		}
		return Event{}, false
	})
	if r := m.Run(500); r.Reason != StopHit {
		t.Fatalf("exec glitch: %v, want exit", r.Reason)
	}
}

func TestPCCorruptCrashes(t *testing.T) {
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 1 {
			return Event{Kind: EventPCCorrupt, DataResidue: true, DataValue: 0x6000_0001}, true
		}
		return Event{}, false
	})
	r := m.Run(500)
	if r.Reason != StopFault || r.Fault != emu.FaultBadFetch {
		t.Fatalf("pc glitch: %v/%v, want bad fetch", r.Reason, r.Fault)
	}
}

func TestRegCorrupt(t *testing.T) {
	// Setting a bit in r3 right before the CMP (rel 4 is the CMP's
	// cycle; the corruption applies before that instruction executes)
	// makes while(!a) exit.
	m := newGuardMachine(t)
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 4 {
			return Event{Kind: EventRegCorrupt, Reg: 3, DataMask: 0x10, DataSet: true}, true
		}
		return Event{}, false
	})
	r := m.Run(500)
	if r.Reason != StopHit {
		t.Fatalf("reg glitch: %v, want exit", r.Reason)
	}
	if r.Regs[3] != 0x10 {
		t.Errorf("r3 = %#x, want 0x10", r.Regs[3])
	}
}

func TestGlitchBeforeTriggerIgnored(t *testing.T) {
	// The injector must not be consulted before the trigger fires; a
	// glitch plan on "every cycle" of window -1 would otherwise corrupt
	// the setup code.
	m := newGuardMachine(t)
	calls := 0
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		calls++
		if rel < 0 || window < 0 {
			t.Fatalf("injector called with rel=%d window=%d", rel, window)
		}
		return Event{}, false
	})
	m.Run(100)
	if calls == 0 {
		t.Fatal("injector never consulted after trigger")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	// Two identical glitched runs produce identical results.
	inj := InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 3 {
			return Event{Kind: EventDataCorrupt, DataResidue: true, DataValue: 0xFF}, true
		}
		return Event{}, false
	})
	m1 := newGuardMachine(t)
	m1.Glitch = inj
	r1 := m1.Run(500)
	m2 := newGuardMachine(t)
	m2.Glitch = inj
	r2 := m2.Run(500)
	if r1 != r2 {
		t.Fatalf("runs differ:\n%+v\n%+v", r1, r2)
	}
}

func TestMultiWindowIndices(t *testing.T) {
	// A firmware with two triggers must present window 0 then window 1.
	b, err := firmware.NewBoard()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadSource(`
		ldr r0, trig
		movs r1, #1
		str r1, [r0]
		nop
		nop
		str r1, [r0]
		nop
	end:
		b end
		.align 4
	trig:
		.word 0x48000028
	`); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(b)
	m.AddStopSymbol("end")
	b.Reset()
	seen := map[int]bool{}
	m.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		seen[window] = true
		return Event{}, false
	})
	if r := m.Run(200); r.Reason != StopHit {
		t.Fatalf("run: %v", r.Reason)
	}
	if !seen[0] || !seen[1] {
		t.Errorf("windows seen = %v, want 0 and 1", seen)
	}
}

func TestEventKindStrings(t *testing.T) {
	// Every defined kind must render a name, not the numeric fallback —
	// EventPCCorrupt regressed to "event6" once.
	names := map[EventKind]string{
		EventNone:         "none",
		EventFetchCorrupt: "fetch-corrupt",
		EventExecCorrupt:  "exec-corrupt",
		EventDataCorrupt:  "data-corrupt",
		EventSkip:         "skip",
		EventRegCorrupt:   "reg-corrupt",
		EventPCCorrupt:    "pc-corrupt",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestMaxStepsCutsRun(t *testing.T) {
	// The guard loop never exits cleanly; a step bound must report hung at
	// exactly that many retired instructions regardless of the cycle
	// budget, and the cut must be deterministic.
	m := newGuardMachine(t)
	m.MaxSteps = 25
	r := m.Run(1 << 40)
	if r.Reason != StopHung {
		t.Fatalf("bounded run: %v (tag %q), want hung", r.Reason, r.Tag)
	}
	if r.Steps != 25 {
		t.Errorf("steps at cut = %d, want 25", r.Steps)
	}

	// A stop reached before the bound still wins over the step check.
	m2 := newGuardMachine(t)
	m2.MaxSteps = 1 << 40
	m2.Glitch = InjectorFunc(func(rel, window int) (Event, bool) {
		if rel == 5 {
			return Event{Kind: EventSkip}, true
		}
		return Event{}, false
	})
	if r := m2.Run(500); r.Reason != StopHit || r.Tag != "exit" {
		t.Fatalf("stop vs step bound: %v (tag %q), want exit hit", r.Reason, r.Tag)
	}
}

// bounded is a test injector that declares its horizon.
type bounded struct {
	InjectorFunc
	last int
}

func (b bounded) Last() int { return b.last }

func TestHorizonFastTailMatchesClosure(t *testing.T) {
	// Skipping the per-slot injector work past an injector's horizon must
	// not change any observable of the run, for every dispatch path.
	events := []Event{
		{Kind: EventSkip},
		{Kind: EventFetchCorrupt, InstMask: 0x0400},
		{Kind: EventExecCorrupt, InstMask: 0x0840},
		{Kind: EventDataCorrupt, DataResidue: true, DataValue: 0xFF},
		{Kind: EventRegCorrupt, Reg: 3, DataMask: 0xFF, DataSet: true},
	}
	for _, ev := range events {
		for at := 0; at < 10; at++ {
			fn := InjectorFunc(func(rel, window int) (Event, bool) {
				return ev, rel == at
			})
			open := newGuardMachine(t)
			open.Glitch = fn
			want := open.Run(500)
			tail := newGuardMachine(t)
			tail.Glitch = bounded{fn, at}
			if got := tail.Run(500); got != want {
				t.Fatalf("%v at %d: fast tail %+v != closure %+v", ev.Kind, at, got, want)
			}
		}
	}
}

// counterSource loops with the same registers at every header visit while
// a RAM counter grows: only the memory comparison can tell the visits
// apart.
const counterSource = `
	ldr r0, trig
	movs r1, #1
	str r1, [r0]
	ldr r2, ram
loop:
	ldr r3, [r2]
	adds r3, #1
	str r3, [r2]
	movs r3, #0
	b loop
exit:
	b exit
	.align 4
trig:
	.word 0x48000028
ram:
	.word 0x20000100
`

func TestLoopStop(t *testing.T) {
	cases := []struct {
		name, src string
		glitch    Injector
		early     bool
	}{
		{"periodic guard", guardSource, nil, true},
		{"horizon passed", guardSource, bounded{InjectorFunc(func(rel, window int) (Event, bool) {
			return Event{Kind: EventRegCorrupt, Reg: 0, DataMask: 1}, rel == 3
		}), 3}, true},
		{"no horizon", guardSource, InjectorFunc(func(rel, window int) (Event, bool) {
			return Event{}, false
		}), false},
		{"memory changes", counterSource, nil, false},
	}
	const budget = 5000
	for _, c := range cases {
		b, err := firmware.NewBoard()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.LoadSource(c.src); err != nil {
			t.Fatal(err)
		}
		m := NewMachine(b)
		m.AddStopSymbol("exit")
		m.LoopStop = b.MustSymbol("loop")
		s := m.SnapshotAtTrigger(budget)
		if s == nil {
			t.Fatalf("%s: no trigger", c.name)
		}
		for round := 0; round < 2; round++ {
			m.Glitch = c.glitch
			r := m.RunFrom(s, budget)
			if r.Reason != StopHung {
				t.Fatalf("%s: %v (tag %q), want hung", c.name, r.Reason, r.Tag)
			}
			if early := r.Cycles < budget; early != c.early {
				t.Errorf("%s round %d: stopped at cycle %d of %d, early=%v, want %v",
					c.name, round, r.Cycles, budget, early, c.early)
			}
		}
		// A full run from reset never stops early.
		b.Reset()
		m.Glitch = c.glitch
		if r := m.Run(budget); r.Reason != StopHung || r.Cycles < budget {
			t.Errorf("%s: full run %v at cycle %d, want hung at the budget", c.name, r.Reason, r.Cycles)
		}
	}
}
