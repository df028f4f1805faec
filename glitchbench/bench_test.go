package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"glitchlab/internal/core"
	"glitchlab/internal/serve"
)

func TestGlitchdSpecsDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for c := 0; c < glitchdClients; c++ {
			a, err := glitchdSpecs(seed, c, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := glitchdSpecs(seed, c, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d client %d: two sequences differ", seed, c)
			}
		}
	}
	a, _ := glitchdSpecs(1, 0, 3)
	b, _ := glitchdSpecs(2, 0, 3)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 give the same sequence")
	}
}

func TestGlitchdSpecMix(t *testing.T) {
	campaignKeys := make([]map[string]bool, glitchdClients)
	for c := range campaignKeys {
		specs, err := glitchdSpecs(5, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		// 12 campaign, 5 scan and 4 eval specs, and a resubmission for
		// every three of them.
		if len(specs) != 28 {
			t.Fatalf("client %d: %d specs, want 28", c, len(specs))
		}
		seen := map[string]bool{}
		campaignKeys[c] = map[string]bool{}
		repeats := 0
		for i, s := range specs {
			if n, err := s.Normalize(); err != nil || n != s {
				t.Fatalf("spec %d %+v is not normalized (%v)", i, s, err)
			}
			if s.Kind == serve.KindEval && (s.Exp == "table6" || s.Exp == "all") ||
				s.Kind == serve.KindScan && (s.Exp == "table3" || s.Exp == "all") {
				t.Fatalf("spec %d %+v is a multi-second job", i, s)
			}
			k := s.CacheKey("")
			if seen[k] {
				repeats++
			} else if s.Kind == serve.KindCampaign {
				campaignKeys[c][k] = true
			}
			seen[k] = true
		}
		if n := len(campaignKeys[c]); n != 12 {
			t.Errorf("client %d: %d fresh campaign specs, want 12", c, n)
		}
		if repeats != 7 {
			t.Errorf("client %d: %d repeated specs, want 7", c, repeats)
		}
	}
	for k := range campaignKeys[0] {
		if campaignKeys[1][k] {
			t.Errorf("both clients submit campaign spec %s", k)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is the part of BENCHMARK.json the names must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), e2eMetrics...), allLayerMetrics()...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		if !unitName.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitName)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range workloads {
		if !metricName.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, metricName)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("BENCHMARK.json has %d %s metrics, benchmark prints %d", len(got), what, len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, allLayerMetrics())
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 100; i > 0; i-- {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	for _, n := range []int{1, 10, 21} {
		if v, p := tail(xs[:n]); v != 100 || p != 100 {
			t.Errorf("tail of %d samples = %v at p%v, want the maximum", n, v, p)
		}
	}
	if v, _ := tail(xs[:22]); v != 90 {
		t.Errorf("tail of 22 samples = %v, want the 12th smallest, 90", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// flips returns copies of b with one byte flipped at a few positions.
func flips(b []byte) [][]byte {
	var out [][]byte
	for _, i := range []int{0, len(b) / 2, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[i] ^= 0x01
		out = append(out, c)
	}
	return out
}

func execSpec(t *testing.T, s serve.Spec) []byte {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.Exec(n, serve.Env{Workers: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDigestChecksCatchFlippedByte(t *testing.T) {
	outputs := []struct {
		what string
		spec serve.Spec
		want string
	}{
		{"campaign", serve.Spec{Kind: serve.KindCampaign}, campaignDigest},
		{"campaign pad_udf", serve.Spec{Kind: serve.KindCampaign, PadUDF: true}, padUDFDigest},
		{"scan all", serve.Spec{Kind: serve.KindScan, Exp: "all"}, scanAllDigest},
	}
	if testing.Short() {
		outputs = outputs[:1]
	}
	for _, o := range outputs {
		out := execSpec(t, o.spec)
		if err := checkDigest(o.what, out, o.want); err != nil {
			t.Fatalf("recorded digest: %v", err)
		}
		for _, f := range flips(out) {
			if checkDigest(o.what, f, o.want) == nil {
				t.Errorf("%s: a flipped byte passes the digest check", o.what)
			}
		}
	}
}

func TestCampaignVerifyCatchesFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both campaign specs twice")
	}
	w, err := newCampaignWork(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.specs); i++ {
		if _, err := w.pass(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.verify(&segment{}); err != nil {
		t.Fatalf("verify on a clean pass: %v", err)
	}
	good := w.outputs[0]
	for _, f := range flips(good) {
		w.outputs[0] = f
		if w.verify(&segment{}) == nil {
			t.Error("verify accepts a served output with a flipped byte")
		}
	}
}

func TestTable6ChecksCatchFlippedByte(t *testing.T) {
	cells := table6Slice()[:1]
	first := []core.Table6Cell{{Total: 11 * 9801, Successes: 38, Detections: 68}}
	if err := checkTable6Repeat(cells, first, first); err != nil {
		t.Fatal(err)
	}
	if err := checkTable6Cell(first[0], 11, 3856); err != nil {
		t.Fatal(err)
	}
	for _, flip := range []func(c *core.Table6Cell){
		func(c *core.Table6Cell) { c.Total ^= 0x01 },
		func(c *core.Table6Cell) { c.Successes ^= 0x01 },
		func(c *core.Table6Cell) { c.Detections ^= 0x0100 },
	} {
		got := first[0]
		flip(&got)
		if checkTable6Repeat(cells, first, []core.Table6Cell{got}) == nil {
			t.Errorf("repeat check accepts %+v against %+v", got, first[0])
		}
	}
	bad := first[0]
	bad.Total ^= 0x01
	if checkTable6Cell(bad, 11, 3856) == nil {
		t.Error("invariant check accepts a wrong Total")
	}
	bad = first[0]
	bad.Successes ^= 0x1000
	if checkTable6Cell(bad, 11, 3856) == nil {
		t.Error("invariant check accepts successes + detections > executed")
	}
}

func TestServedBodyCheckCatchesFlippedByte(t *testing.T) {
	direct := execSpec(t, serve.Spec{Kind: serve.KindCampaign, Model: "and", MaxFlips: 2})
	if err := checkBody(direct, direct); err != nil {
		t.Fatal(err)
	}
	for _, f := range flips(direct) {
		if checkBody(f, direct) == nil {
			t.Error("a served body with a flipped byte passes")
		}
	}
}

func TestScanAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a full scan")
	}
	n, err := scanAttempts(execSpec(t, serve.Spec{Kind: serve.KindScan, Exp: "all"}))
	if err != nil {
		t.Fatal(err)
	}
	// Tables I-III: 3 guards x 9801 points x (8 + 8 + 11) cycles or
	// ranges, plus the two V-B searches (356 + 35 attempts).
	if want := uint64(3*9801*27 + 356 + 35); n != want {
		t.Errorf("scan all attempts = %d, want %d", n, want)
	}
}

func TestSessionServesDirectExecBytes(t *testing.T) {
	per := make([][]serve.Spec, glitchdClients)
	for c := range per {
		specs, err := glitchdSpecs(3, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if s.Kind != serve.KindScan && len(per[c]) < 6 { // keep it short
				per[c] = append(per[c], s)
			}
		}
	}
	jobs, busy, err := runSession(t.TempDir(), per, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 || busy <= 0 {
		t.Fatalf("%d jobs in %v, want 12", len(jobs), busy)
	}
	seg := &segment{}
	checkJobs(jobs, seg)
	if seg.attempted != 12 || seg.failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", seg.failed, seg.attempted, seg.notes)
	}
}
