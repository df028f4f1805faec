package pipeline_test

import (
	"fmt"
	"testing"

	"glitchlab/internal/analyze"
	"glitchlab/internal/firmware"
	"glitchlab/internal/lcg"
	"glitchlab/internal/pipeline"
)

// quotientSeedAddr is the RAM seed word of the hazard firmwares.
const quotientSeedAddr = firmware.RAMBase + 0x100

// quotientDelay is the random-delay routine as internal/codegen emits it.
// extra is spliced in right after the seed store.
func quotientDelay(extra string) string {
	return fmt.Sprintf(`
__gr_delay:
	ldr r0, =%#x
	ldr r1, [r0]
	ldr r2, =1103515245
	muls r1, r2
	ldr r2, =12345
	adds r1, r1, r2
	ldr r2, =0x7fffffff
	ands r1, r2
	str r1, [r0]
%s
	lsrs r3, r1, #16
	movs r2, #15
	ands r3, r2
	cmp r3, #11
	bcc .Ldelayloop
	subs r3, #11
.Ldelayloop:
	cmp r3, #0
	beq .Ldelaydone
dnop:
	nop
	subs r3, #1
	b .Ldelayloop
.Ldelaydone:
	bx lr
	.pool
`, quotientSeedAddr, extra)
}

// quotientFirmware seeds the delay routine with seed, raises the trigger,
// runs pre, then loops: header, a delay call, body. success is a stop.
func quotientFirmware(seed uint32, pre, header, body, delayExtra string) string {
	return fmt.Sprintf(`
	ldr r0, =%#x
	ldr r1, =%#x
	str r1, [r0]
	ldr r0, =0x48000028
	movs r1, #1
	str r1, [r0]
%s
loop:
%s
	bl __gr_delay
%s
	b loop
success:
	b success
	.pool
%s`, quotientSeedAddr, seed, pre, header, body, quotientDelay(delayExtra))
}

// quotientBudget leaves room for a few hundred loop iterations and one
// flash store.
const quotientBudget = firmware.FlashWriteCycles + 40_000

// runQuotient runs src from its trigger snapshot with the loop stop and
// the image's seed-quotient fact (when DelayQuotient proves one), and
// from reset in full as the reference. It reports both results and
// whether the fact was proved.
func runQuotient(t *testing.T, src string) (fast, full pipeline.Result, proved bool) {
	t.Helper()
	b, err := firmware.NewBoard()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := pipeline.NewMachine(b)
	m.AddStopSymbol("success")
	m.LoopStop = b.MustSymbol("loop")
	if q, ok := analyze.DelayQuotient(prog, quotientSeedAddr); ok {
		m.Quotient, proved = &q, true
	}
	s := m.SnapshotAtTrigger(quotientBudget)
	if s == nil {
		t.Fatal("no trigger")
	}
	fast = m.RunFrom(s, quotientBudget)
	b.Reset()
	full = m.Run(quotientBudget)
	return fast, full, proved
}

// seedWhere returns a start seed whose delay calls first satisfy hit at
// call i in [3, 40]: the loop stop compares the visits around the first
// call, so with an unsound quotient it would stop before the hit.
func seedWhere(t *testing.T, hit func(seed uint32) bool) uint32 {
	t.Helper()
	for s0 := uint32(1); s0 < 10_000; s0++ {
		g := lcg.New(s0)
		for i := 1; i <= 40; i++ {
			if hit(g.Next()) {
				if i >= 3 {
					return s0
				}
				break
			}
		}
	}
	t.Fatal("no start seed found")
	return 0
}

// topSeven is a seed-dependent branch condition: the new seed's top
// nibble is 7.
func topSeven(seed uint32) bool { return seed>>28 == 7 }

// checkQuotient requires the snapshot run to classify like the full run
// and to stop early exactly when early is set.
func checkQuotient(t *testing.T, name string, fast, full pipeline.Result, early bool) {
	t.Helper()
	if fast.Reason != full.Reason || fast.Tag != full.Tag {
		t.Errorf("%s: loop-stop run %v/%q, full run %v/%q", name, fast.Reason, fast.Tag, full.Reason, full.Tag)
	}
	if got := fast.Reason == pipeline.StopHung && fast.Cycles < quotientBudget; got != early {
		t.Errorf("%s: stopped early = %v at cycle %d, want %v", name, got, fast.Cycles, early)
	}
}

// TestQuotientStopsDeadSeedLoop is the control: a loop whose only
// seed-dependent state is the seed word and the dead r1 ends early.
func TestQuotientStopsDeadSeedLoop(t *testing.T) {
	fast, full, proved := runQuotient(t, quotientFirmware(5, "", "", "", ""))
	if !proved {
		t.Fatal("the emitted delay routine has no seed-quotient fact")
	}
	if full.Reason != pipeline.StopHung {
		t.Fatalf("full run %v, want hung", full.Reason)
	}
	checkQuotient(t, "dead seed", fast, full, true)
}

// TestQuotientSeedFeedsBranchOrStore: a build in which the seed reaches a
// real branch or store must not take the quotient. Each firmware reaches
// success at a later delay call than the one the loop stop first
// compares across.
func TestQuotientSeedFeedsBranchOrStore(t *testing.T) {
	seed := seedWhere(t, topSeven)
	cases := []struct {
		name, body, delayExtra string
		proved                 bool
	}{
		// The loop loads the seed word itself and branches on it.
		{"loop branches on the seed word", fmt.Sprintf(`
	ldr r2, =%#x
	ldr r2, [r2]
	lsrs r2, r2, #28
	cmp r2, #7
	beq success`, quotientSeedAddr), "", true},
		// The delay routine stores the seed a second time, where the
		// loop reads it.
		{"delay stores the seed elsewhere", fmt.Sprintf(`
	ldr r2, =%#x
	ldr r2, [r2]
	lsrs r2, r2, #28
	cmp r2, #7
	beq success`, quotientSeedAddr+4), "\tstr r1, [r0, #4]", false},
		// The delay routine branches on the seed out of its own code.
		{"delay branches on the seed", "", `
	lsrs r2, r1, #28
	cmp r2, #7
	bne .Lstay
	bl success
.Lstay:`, false},
	}
	for _, c := range cases {
		fast, full, proved := runQuotient(t, quotientFirmware(seed, "", "", c.body, c.delayExtra))
		if proved != c.proved {
			t.Errorf("%s: fact proved = %v, want %v", c.name, proved, c.proved)
		}
		if full.Reason != pipeline.StopHit || full.Tag != "success" {
			t.Fatalf("%s: full run %v/%q, want success", c.name, full.Reason, full.Tag)
		}
		checkQuotient(t, c.name, fast, full, false)
	}
}

// TestQuotientLiveSeedRegister: a register the delay routine leaves
// seed-dependent must not be dropped when it is live at the loop header,
// even when its values at the two compared visits happen to be equal.
func TestQuotientLiveSeedRegister(t *testing.T) {
	cases := []struct {
		name, pre, header, delayExtra string
		hit                           func(seed uint32) bool
	}{
		{"r1 live at the header", "", `
	lsrs r2, r1, #28
	cmp r2, #7
	beq success`, "", topSeven},
		// r4 holds one seed bit: 0 at both compared visits, so only the
		// liveness of a seed-dependent register tells them apart.
		{"seed bit in r4, equal at the compared visits", "\tmovs r4, #0", `
	cmp r4, #1
	beq success`, "\tlsrs r4, r1, #30", func(s uint32) bool { return s>>30 == 1 }},
	}
	for _, c := range cases {
		seed := seedWhere(t, c.hit)
		fast, full, proved := runQuotient(t, quotientFirmware(seed, c.pre, c.header, "", c.delayExtra))
		if !proved {
			t.Fatalf("%s: the delay routine has no seed-quotient fact", c.name)
		}
		if full.Reason != pipeline.StopHit || full.Tag != "success" {
			t.Fatalf("%s: full run %v/%q, want success", c.name, full.Reason, full.Tag)
		}
		checkQuotient(t, c.name, fast, full, false)
	}
}

// TestQuotientStrayFlashStore: a flash store after the snapshot may
// rewrite the code the fact describes, so the comparison falls back to
// exact. Here the store turns the delay routine's nop into adds r2, #1,
// making r2 the delay count plus 15, and the loop branches on it.
func TestQuotientStrayFlashStore(t *testing.T) {
	seed := seedWhere(t, func(s uint32) bool {
		n := s >> 16 & 15
		if n >= 11 {
			n -= 11
		}
		return n == 5
	})
	// adds r2, #1 is 0x3201.
	pre := `
	ldr r0, =dnop
	ldr r1, =0x3201
	strh r1, [r0]`
	body := `
	cmp r2, #20
	beq success`
	fast, full, proved := runQuotient(t, quotientFirmware(seed, pre, "", body, ""))
	if !proved {
		t.Fatal("the emitted delay routine has no seed-quotient fact")
	}
	if full.Reason != pipeline.StopHit || full.Tag != "success" {
		t.Fatalf("full run %v/%q, want success", full.Reason, full.Tag)
	}
	checkQuotient(t, "stray flash store", fast, full, false)
	// Without the store, the same loop stops early: it is the store
	// alone that turns the quotient off.
	fast, full, _ = runQuotient(t, quotientFirmware(seed, "", "", body, ""))
	checkQuotient(t, "no flash store", fast, full, true)
}
