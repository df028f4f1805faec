package glitcher

import (
	"reflect"
	"testing"

	"glitchlab/internal/obs"
)

func TestGridUntilStops(t *testing.T) {
	n := 0
	full := GridUntil(func(p Params) bool {
		n++
		return n < 100
	})
	if full || n != 100 {
		t.Fatalf("GridUntil visited %d points (full=%v), want exactly 100 then stop", n, full)
	}
	n = 0
	if !GridUntil(func(Params) bool { n++; return true }) || n != GridSize {
		t.Fatalf("GridUntil without cancel visited %d points, want %d", n, GridSize)
	}
}

func TestGridBandMatchesGridOrder(t *testing.T) {
	var whole, banded []Params
	Grid(func(p Params) { whole = append(whole, p) })
	// Four contiguous bands of unequal width, covering every row.
	for _, b := range [][2]int{{-ParamRange, -30}, {-30, 0}, {0, 1}, {1, ParamRange + 1}} {
		GridBand(b[0], b[1], func(p Params) bool {
			banded = append(banded, p)
			return true
		})
	}
	if !reflect.DeepEqual(whole, banded) {
		t.Fatal("concatenated band traversal differs from Grid order")
	}
}

// scanCounters are the observer metrics that must match exactly between a
// serial scan and a sharded one. (The best-cell gauges are excluded by
// design: shards evaluate cells at merge granularity, so the gauge depends
// on how the attempts were split across workers.)
var scanCounters = []string{
	MetricAttempts, MetricSuccesses, MetricSteps,
	MetricGridTried, MetricGridHit, MetricCoverage,
}

func newScanObs() (*Obs, *obs.Registry) {
	reg := obs.NewRegistry()
	return NewObs(reg, nil), reg
}

func checkScanCounters(t *testing.T, label string, sreg, preg *obs.Registry) {
	t.Helper()
	ss, ps := sreg.Snapshot(), preg.Snapshot()
	sm := map[string]float64{}
	for _, c := range ss.Counters {
		sm[c.Name] = float64(c.Value)
	}
	for _, g := range ss.Gauges {
		sm[g.Name] = g.Value
	}
	pm := map[string]float64{}
	for _, c := range ps.Counters {
		pm[c.Name] = float64(c.Value)
	}
	for _, g := range ps.Gauges {
		pm[g.Name] = g.Value
	}
	for _, name := range scanCounters {
		if sm[name] != pm[name] {
			t.Errorf("%s: %s = %v sharded, want %v (serial)", label, name, pm[name], sm[name])
		}
	}
}

// TestTable1WorkersMatchesSerial is the scan-side golden-equivalence
// contract: a band-sharded Table I scan must reproduce the serial result
// field for field, and the flushed observer counters must match exactly.
func TestTable1WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	sobs, sreg := newScanObs()
	m.Obs = sobs
	serial, err := m.RunTable1(GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	pobs, preg := newScanObs()
	m.Obs = pobs
	parallel, err := m.RunTable1Workers(GuardWhileA, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table I differs from serial")
	}
	checkScanCounters(t, "table1", sreg, preg)
}

func TestTable2WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	serial, err := m.RunTable2(GuardWhileNeq)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.RunTable2Workers(GuardWhileNeq, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table II differs from serial")
	}
}

func TestTable3WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	serial, err := m.RunTable3(GuardWhileNotA)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.RunTable3Workers(GuardWhileNotA, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table III differs from serial")
	}
}

// TestObsShardFlushMatchesSerial feeds the same attempt stream through a
// serial Obs and through several shards, and requires identical counter
// and heatmap state after the flush.
func TestObsShardFlushMatchesSerial(t *testing.T) {
	m := NewModel(11)
	tgt, err := NewTarget(GuardWhileA, GuardWhileA.SingleLoopSource())
	if err != nil {
		t.Fatal(err)
	}

	sobs, sreg := newScanObs()
	pobs, preg := newScanObs()
	shards := []*ObsShard{pobs.Shard(), pobs.Shard(), pobs.Shard()}

	i := 0
	GridBand(-ParamRange, -ParamRange+6, func(p Params) bool {
		if _, hit := m.EventAt(p, 4, 0); !hit {
			sobs.NoEffect(p)
			shards[i%len(shards)].NoEffect(p)
		} else {
			r := tgt.Attempt(m.Plan(p, 4))
			sobs.Attempt(p, r)
			shards[i%len(shards)].Attempt(p, r)
		}
		i++
		return true
	})
	for _, s := range shards {
		s.Flush()
	}
	checkScanCounters(t, "shard flush", sreg, preg)
	Grid(func(p Params) {
		sr, sa := sobs.CellRate(p)
		pr, pa := pobs.CellRate(p)
		if sr != pr || sa != pa {
			t.Fatalf("cell %+v: shard-merged rate %v/%d, serial %v/%d", p, pr, pa, sr, sa)
		}
	})
}
