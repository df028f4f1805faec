package analyze_test

import (
	"strings"
	"testing"

	"glitchlab/internal/analyze"
	"glitchlab/internal/codegen"
	"glitchlab/internal/ir"
	"glitchlab/internal/isa"
	"glitchlab/internal/minic"
	"glitchlab/internal/passes"
)

// build compiles mini-C through lowering and instrumentation, optionally
// assembling an image, without going through the core facade.
func build(t *testing.T, src string, cfg passes.Config, withImage bool) *analyze.Target {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := minic.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	var rep passes.Report
	if cfg.EnumRewrite {
		if err := passes.RewriteEnums(chk, &rep); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := ir.Lower(chk)
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Instrument(mod, cfg, &rep); err != nil {
		t.Fatal(err)
	}
	tgt := &analyze.Target{Module: mod}
	if withImage {
		img, err := codegen.Build(mod, codegen.Options{Delay: cfg.Delay})
		if err != nil {
			t.Fatal(err)
		}
		tgt.Image = img
	}
	return tgt
}

func run(t *testing.T, tgt *analyze.Target, opts analyze.Options) *analyze.Result {
	t.Helper()
	res, err := analyze.Run(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ruleFindings filters a result to one rule ID.
func ruleFindings(res *analyze.Result, id string) []analyze.Finding {
	var out []analyze.Finding
	for _, f := range res.Findings {
		if f.Rule == id {
			out = append(out, f)
		}
	}
	return out
}

const guardSrc = `
volatile unsigned int a;

void main(void) {
	unsigned int x = 5;
	while (x > 0) {
		x = x - 1;
	}
	if (x == a) {
		success();
	}
	halt();
}
`

func TestSPOFBranchRule(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), false), analyze.Options{})
	got := ruleFindings(res, "GL001")
	if len(got) < 2 {
		t.Fatalf("GL001 on unprotected guards: %d findings, want >= 2 (loop + if)", len(got))
	}
	for _, f := range got {
		if f.FixedBy != "branches" || f.Func != "main" || f.Block == "" {
			t.Errorf("GL001 finding malformed: %+v", f)
		}
	}

	hardened := run(t, build(t, guardSrc,
		passes.Config{Branches: true}, false), analyze.Options{})
	if left := ruleFindings(hardened, "GL001"); len(left) != 0 {
		t.Errorf("GL001 after branch hardening: %d findings remain: %v", len(left), left)
	}
}

func TestLoopExitRule(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), false), analyze.Options{})
	got := ruleFindings(res, "GL005")
	if len(got) != 1 {
		t.Fatalf("GL005 on unprotected loop: %d findings, want 1", len(got))
	}
	if got[0].FixedBy != "loops" {
		t.Errorf("GL005 FixedBy = %q, want loops", got[0].FixedBy)
	}

	hardened := run(t, build(t, guardSrc,
		passes.Config{Loops: true}, false), analyze.Options{})
	if left := ruleFindings(hardened, "GL005"); len(left) != 0 {
		t.Errorf("GL005 after loop hardening: %d findings remain: %v", len(left), left)
	}
}

const enumSrc = `
enum status { IDLE, ARMED, FIRED };

volatile unsigned int a;

unsigned int state(void) {
	if (a == 1) {
		return ARMED;
	}
	return IDLE;
}

void main(void) {
	if (state() == ARMED) {
		success();
	}
	halt();
}
`

func TestLowHammingRule(t *testing.T) {
	res := run(t, build(t, enumSrc, passes.None(), false), analyze.Options{})
	got := ruleFindings(res, "GL002")
	if len(got) != 2 {
		t.Fatalf("GL002 on sequential enum + 0/1 returns: %d findings, want 2", len(got))
	}
	var sawEnum, sawReturns bool
	for _, f := range got {
		switch f.FixedBy {
		case "enums":
			sawEnum = true
			if !strings.Contains(f.Hint, "0x") {
				t.Errorf("enum hint lacks RS suggestions: %q", f.Hint)
			}
		case "returns":
			sawReturns = true
			if f.Func != "state" {
				t.Errorf("returns finding on %q, want state", f.Func)
			}
		}
	}
	if !sawEnum || !sawReturns {
		t.Fatalf("GL002 variants: enum=%v returns=%v, want both", sawEnum, sawReturns)
	}

	// Each sub-shape is cleared by its own pass.
	fixed := run(t, build(t, enumSrc,
		passes.Config{EnumRewrite: true, Returns: true}, false), analyze.Options{})
	if left := ruleFindings(fixed, "GL002"); len(left) != 0 {
		t.Errorf("GL002 after enums+returns: %d findings remain: %v", len(left), left)
	}
}

func TestFailOpenRule(t *testing.T) {
	const failOpenSrc = `
volatile unsigned int bad;

void main(void) {
	if (bad) {
		halt();
	}
	success();
}
`
	res := run(t, build(t, failOpenSrc, passes.None(), false), analyze.Options{})
	if got := ruleFindings(res, "GL003"); len(got) != 1 {
		t.Fatalf("GL003 on fail-open guard: %d findings, want 1", len(got))
	}

	// The fail-closed version keeps the privileged call behind the taken
	// edge and must not be flagged.
	const failClosedSrc = `
volatile unsigned int ok;

void main(void) {
	if (ok) {
		success();
	}
	halt();
}
`
	res = run(t, build(t, failClosedSrc, passes.None(), false), analyze.Options{})
	if got := ruleFindings(res, "GL003"); len(got) != 0 {
		t.Fatalf("GL003 on fail-closed guard: %v, want none", got)
	}

	// Loop-exit fail-open: escaping while(!a) boots. Loop hardening moves
	// the exit behind a check block's taken edge, clearing the finding.
	const loopSrc = `
volatile unsigned int a;

void main(void) {
	while (!a) { }
	success();
}
`
	res = run(t, build(t, loopSrc, passes.None(), false), analyze.Options{})
	if got := ruleFindings(res, "GL003"); len(got) != 1 {
		t.Fatalf("GL003 on while(!a) exit: %d findings, want 1", len(got))
	}
	res = run(t, build(t, loopSrc, passes.Config{Loops: true}, false), analyze.Options{})
	if got := ruleFindings(res, "GL003"); len(got) != 0 {
		t.Fatalf("GL003 after loop hardening: %v, want none", got)
	}
}

const sensitiveSrc = `
volatile unsigned int uwTick;

void main(void) {
	while (1) {
		unsigned int t = uwTick;
		if (t == 0) {
			success();
		}
		uwTick = t + 1;
	}
}
`

func TestUnshadowedLoadRule(t *testing.T) {
	opts := analyze.Options{Sensitive: []string{"uwTick"}}
	res := run(t, build(t, sensitiveSrc, passes.None(), false), opts)
	got := ruleFindings(res, "GL004")
	if len(got) != 1 {
		t.Fatalf("GL004 on unshadowed load: %d findings, want 1", len(got))
	}
	if got[0].FixedBy != "integrity" {
		t.Errorf("GL004 FixedBy = %q, want integrity", got[0].FixedBy)
	}

	// Without the sensitive list nothing marks the global, so the rule
	// has nothing to check.
	res = run(t, build(t, sensitiveSrc, passes.None(), false), analyze.Options{})
	if len(ruleFindings(res, "GL004")) != 0 {
		t.Error("GL004 fired with no sensitive configuration")
	}

	protected := build(t, sensitiveSrc,
		passes.Config{Integrity: true, Sensitive: []string{"uwTick"}}, false)
	res = run(t, protected, opts)
	if left := ruleFindings(res, "GL004"); len(left) != 0 {
		t.Errorf("GL004 after integrity: %d findings remain: %v", len(left), left)
	}
}

func TestOneFlipBranchRule(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), true), analyze.Options{})
	got := ruleFindings(res, "GL006")
	if len(got) == 0 {
		t.Fatal("GL006 found no one-flip-vulnerable branch encodings in an unprotected image")
	}
	for _, f := range got {
		if f.Addr == 0 || f.Func == "" || f.Block == "" {
			t.Errorf("GL006 finding lacks location: %+v", f)
		}
	}

	hardened := run(t, build(t, guardSrc,
		passes.Config{Branches: true, Loops: true}, true), analyze.Options{})
	if left := ruleFindings(hardened, "GL006"); len(left) != 0 {
		t.Errorf("GL006 after branch+loop hardening: %d remain: %v", len(left), left)
	}
}

func TestImageRuleSkippedWithoutImage(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), false), analyze.Options{})
	found := false
	for _, id := range res.Skipped {
		if id == "GL006" {
			found = true
		}
	}
	if !found {
		t.Errorf("Skipped = %v, want GL006 listed on an image-less target", res.Skipped)
	}
	for _, m := range res.Ran {
		if m.ID == "GL006" {
			t.Error("GL006 reported as ran without an image")
		}
	}
}

func TestDisabledRules(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), false),
		analyze.Options{Disabled: []string{"GL001", "unhardened-loop-exit"}})
	if n := len(ruleFindings(res, "GL001")) + len(ruleFindings(res, "GL005")); n != 0 {
		t.Errorf("disabled rules still produced %d findings", n)
	}
	if len(res.Skipped) < 2 {
		t.Errorf("Skipped = %v, want both disabled rules listed", res.Skipped)
	}
}

func TestUnremoved(t *testing.T) {
	// Analyzing an unprotected module and claiming every pass ran must
	// surface the pass-owned findings as violations.
	res := run(t, build(t, guardSrc, passes.None(), false), analyze.Options{})
	violations := analyze.Unremoved(res, passes.All())
	if len(violations) == 0 {
		t.Fatal("Unremoved found nothing on an unprotected module under an all-passes config")
	}
	for _, f := range violations {
		if f.FixedBy == "" {
			t.Errorf("finding with no owning pass reported as unremoved: %+v", f)
		}
	}
	// Under the empty config nothing is owed.
	if v := analyze.Unremoved(res, passes.None()); len(v) != 0 {
		t.Errorf("Unremoved under None = %d findings, want 0", len(v))
	}
}

func TestResultAccessors(t *testing.T) {
	res := run(t, build(t, guardSrc, passes.None(), true), analyze.Options{})
	if sev := res.MaxSeverity(); sev != analyze.High {
		t.Errorf("MaxSeverity = %v, want high (GL001 present)", sev)
	}
	sum := res.Summary()
	for _, id := range res.DistinctRules() {
		if !strings.Contains(sum, id) {
			t.Errorf("Summary %q missing rule %s", sum, id)
		}
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule": "GL001"`, `"severity": "high"`, `"fixed_by": "branches"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

// asmTarget assembles a hand-written code fragment into a Target whose
// module has a single main/entry block, so image rules can attribute
// addresses through the f_main_entry span. The success label marks the
// start of the (excluded) runtime, as codegen's layout does.
func asmTarget(t *testing.T, body string) *analyze.Target {
	t.Helper()
	prog, err := isa.Assemble(0x0800_0000, "main:\nf_main_entry:\n"+body+"\nsuccess:\n	nop\n")
	if err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", Blocks: []*ir.Block{{
		Name:   "entry",
		Instrs: []*ir.Instr{{Op: ir.OpRet, A: ir.NoValue}},
	}}}
	return &analyze.Target{
		Module: &ir.Module{Funcs: []*ir.Func{f}},
		Image:  &codegen.Image{Prog: prog},
	}
}

func TestIndirectFlowRule(t *testing.T) {
	// Every compiled function returns through pop {r7, pc} — an unchecked
	// stack-loaded PC — so the unprotected build must flag GL007, and no
	// current defense pass removes it.
	res := run(t, build(t, guardSrc, passes.None(), true), analyze.Options{})
	got := ruleFindings(res, "GL007")
	if len(got) == 0 {
		t.Fatal("GL007 found no unchecked indirect transfers in a compiled image")
	}
	for _, f := range got {
		if f.Addr == 0 || f.Func == "" {
			t.Errorf("GL007 finding lacks location: %+v", f)
		}
		if f.FixedBy != "cfi" {
			t.Errorf("GL007 FixedBy = %q, want cfi (the future CFI pass)", f.FixedBy)
		}
	}
	defended := run(t, build(t, guardSrc, passes.All(), true), analyze.Options{})
	if len(ruleFindings(defended, "GL007")) == 0 {
		t.Error("GL007 disappeared under the current defenses, but none validates indirect targets")
	}
	// No enabled pass owns GL007 yet, so Unremoved must not claim it.
	for _, f := range analyze.Unremoved(defended, passes.All()) {
		if f.Rule == "GL007" {
			t.Errorf("GL007 reported as unremoved under a config with no CFI pass: %+v", f)
		}
	}
}

func TestIndirectFlowShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bx unchecked", "	bx r3", 1},
		{"blx unchecked", "	blx r4", 1},
		{"pop into pc", "	pop {r7, pc}", 1},
		{"bx after cmp on target", "	cmp r3, #0\n	bx r3", 0},
		{"bx after cmp reg on target", "	cmp r0, r3\n	bx r3", 0},
		{"bx after cmp on other reg", "	cmp r0, #0\n	bx r3", 1},
		{"pop without pc", "	pop {r4, r7}", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, asmTarget(t, tc.body), analyze.Options{})
			if got := len(ruleFindings(res, "GL007")); got != tc.want {
				t.Errorf("GL007 on %q: %d findings, want %d", tc.body, got, tc.want)
			}
		})
	}
}

func TestSortFindingsDeterministic(t *testing.T) {
	want := []analyze.Finding{
		{Rule: "GL001", Func: "boot", Block: "entry", Instr: 2},
		{Rule: "GL001", Func: "boot", Block: "loop", Instr: 0},
		{Rule: "GL001", Func: "main", Block: "entry", Instr: 2},
		{Rule: "GL002", Detail: "enum mode", Instr: -1},
		{Rule: "GL002", Detail: "return codes of classify", Instr: -1},
		{Rule: "GL006", Func: "main", Block: "entry", Instr: -1, Addr: 0x8000010},
		{Rule: "GL006", Func: "main", Block: "entry", Instr: -1, Addr: 0x8000020},
	}
	// Feed the sorter from map iteration — the canonical source of
	// nondeterministic order — many times; the output must never vary.
	for trial := 0; trial < 50; trial++ {
		byKey := map[int]analyze.Finding{}
		for i, f := range want {
			byKey[i*7+trial] = f
		}
		var got []analyze.Finding
		for _, f := range byKey {
			got = append(got, f)
		}
		analyze.SortFindings(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRunOutputStable renders the same target twice and requires identical
// bytes — the property corpus aggregation and golden files build on.
func TestRunOutputStable(t *testing.T) {
	tgt := build(t, guardSrc, passes.None(), true)
	a, err := analyze.Run(tgt, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := analyze.Run(tgt, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Error("two runs over the same target rendered different JSON")
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []analyze.Severity{analyze.Info, analyze.Low, analyze.Medium, analyze.High} {
		data, err := sev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back analyze.Severity
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Errorf("severity %v round-tripped to %v", sev, back)
		}
	}
	var s analyze.Severity
	if err := s.UnmarshalJSON([]byte(`"fatal"`)); err == nil {
		t.Error("UnmarshalJSON accepted an unknown severity")
	}
}

func TestRulesVersionTracksRegistry(t *testing.T) {
	v := analyze.RulesVersion()
	for _, r := range analyze.Rules() {
		if !strings.Contains(v, r.Meta().ID) {
			t.Errorf("RulesVersion %q missing rule %s", v, r.Meta().ID)
		}
	}
	if !strings.Contains(v, "rev") {
		t.Errorf("RulesVersion %q carries no revision counter", v)
	}
}

func TestParseSeverity(t *testing.T) {
	for _, sev := range []analyze.Severity{analyze.Info, analyze.Low, analyze.Medium, analyze.High} {
		back, err := analyze.ParseSeverity(sev.String())
		if err != nil || back != sev {
			t.Errorf("ParseSeverity(%q) = %v, %v", sev.String(), back, err)
		}
	}
	if _, err := analyze.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity accepted an unknown name")
	}
}

// TestDelayQuotientEmittedRoutine pins the seed-quotient fact for the
// random-delay routine the code generator emits: it reads only lr, leaves
// r0, r2 and r3 the same for every seed and r1 seed-dependent. A build
// without the delay defense has no fact.
func TestDelayQuotientEmittedRoutine(t *testing.T) {
	const src = `
volatile unsigned int a;
void main(void) {
	while (!a) {}
	halt();
}`
	img := build(t, src, passes.Config{Delay: true}, true).Image
	seed := img.GlobalAddrs["__gr_seed_ram"]
	q, ok := analyze.DelayQuotient(img.Prog, seed)
	if !ok {
		t.Fatal("no seed-quotient fact for the emitted delay routine")
	}
	entry, _ := img.Symbol(passes.DelayFunc)
	if q.Seed != seed || q.Entry != entry || q.End <= entry {
		t.Errorf("fact %+v: want seed %#x, entry %#x", q, seed, entry)
	}
	const r0, r1, r2, r3 = 1 << 0, 1 << 1, 1 << 2, 1 << 3
	if q.Reads != 1<<isa.LR || q.Clean != r0|r2|r3 || q.Tainted != r1 {
		t.Errorf("reads %#x clean %#x tainted %#x, want %#x %#x %#x",
			q.Reads, q.Clean, q.Tainted, 1<<isa.LR, r0|r2|r3, r1)
	}
	plain := build(t, src, passes.Config{}, true).Image
	if _, ok := analyze.DelayQuotient(plain.Prog, seed); ok {
		t.Error("a build without the delay defense has a seed-quotient fact")
	}
}
