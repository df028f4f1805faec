package runctl

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// schedUnits is the unit count of the scheduler tests; the worker counts
// cover a pool of one, small pools and more workers than units.
const schedUnits = 17

var schedWorkers = []int{1, 2, 3, schedUnits + 5}

// unitResult is a unit's result: a pure function of its index, with a
// slice so checkpoint round-trips are exercised on a non-scalar value.
type unitResult struct {
	I   int
	Sq  []int
	Tag string
}

func wantResult(i int) unitResult {
	return unitResult{I: i, Sq: []int{i * i, i + 1}, Tag: fmt.Sprintf("u%d", i)}
}

func schedKeys() []string {
	keys := make([]string, schedUnits)
	for i := range keys {
		keys[i] = fmt.Sprintf("sched unit=%d", i)
	}
	return keys
}

func wantResults() []unitResult {
	out := make([]unitResult, schedUnits)
	for i := range out {
		out[i] = wantResult(i)
	}
	return out
}

// workerState is a worker's private state in the scheduler tests.
type workerState struct {
	wedged   bool // set by a unit that panics
	released bool
}

func openSched(t *testing.T, ctx context.Context, dir string, resume bool) *Run {
	t.Helper()
	rn, err := Open(ctx, dir, testManifest(), resume)
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

func allDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

func TestSweepResultsInUnitOrder(t *testing.T) {
	reversed := make([]int, schedUnits)
	for i := range reversed {
		reversed[i] = schedUnits - 1 - i
	}
	for _, workers := range schedWorkers {
		for _, order := range [][]int{nil, reversed} {
			var calls atomic.Int64
			var mu sync.Mutex
			var doneOrder []int
			results, done, err := Sweep(nil, Units[*workerState, unitResult]{
				Keys:     schedKeys(),
				Order:    order,
				Workers:  workers,
				NewState: func() (*workerState, error) { return &workerState{}, nil },
				Do: func(_ *workerState, i int) (unitResult, error) {
					calls.Add(1)
					return wantResult(i), nil
				},
				Done: func(i int, _ unitResult) {
					mu.Lock()
					doneOrder = append(doneOrder, i)
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(results, wantResults()) || !allDone(done) {
				t.Fatalf("workers=%d order=%v: results %v done %v", workers, order, results, done)
			}
			if calls.Load() != schedUnits || len(doneOrder) != schedUnits {
				t.Fatalf("workers=%d: %d calls, %d done reports, want %d each",
					workers, calls.Load(), len(doneOrder), schedUnits)
			}
			if workers == 1 && order != nil && !reflect.DeepEqual(doneOrder, order) {
				t.Fatalf("a pool of one ran %v, want the dispatch order %v", doneOrder, order)
			}
		}
	}
}

func TestSweepSkipsCheckpointedUnits(t *testing.T) {
	for _, workers := range schedWorkers {
		dir := t.TempDir()
		rn := openSched(t, context.Background(), dir, false)
		keys := schedKeys()
		for i := 0; i < schedUnits; i += 3 {
			if err := rn.Complete(keys[i], wantResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		rn.Close()

		rn = openSched(t, context.Background(), dir, true)
		var mu sync.Mutex
		ran := map[int]bool{}
		results, done, err := Sweep(rn, Units[struct{}, unitResult]{
			Keys:    keys,
			Workers: workers,
			Do: func(_ struct{}, i int) (unitResult, error) {
				mu.Lock()
				ran[i] = true
				mu.Unlock()
				return wantResult(i), nil
			},
		})
		rn.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < schedUnits; i++ {
			if ran[i] != (i%3 != 0) {
				t.Fatalf("workers=%d: unit %d ran=%v; checkpointed units must be skipped, the rest run",
					workers, i, ran[i])
			}
		}
		if !reflect.DeepEqual(results, wantResults()) || !allDone(done) {
			t.Fatalf("workers=%d: merged results differ from a fresh sweep", workers)
		}
	}
}

func TestSweepQuarantinesPanickingUnit(t *testing.T) {
	const poisoned = 5
	for _, workers := range schedWorkers {
		rn := openSched(t, context.Background(), t.TempDir(), false)
		var built, released atomic.Int64
		var stale atomic.Int64 // units handed a wedged or released state
		results, done, err := Sweep(rn, Units[*workerState, unitResult]{
			Keys:    schedKeys(),
			Workers: workers,
			NewState: func() (*workerState, error) {
				built.Add(1)
				return &workerState{}, nil
			},
			Release: func(s *workerState) {
				released.Add(1)
				s.released = true
			},
			Do: func(s *workerState, i int) (unitResult, error) {
				if s.wedged || s.released {
					stale.Add(1)
				}
				if i == poisoned {
					s.wedged = true
					panic("injected fault")
				}
				return wantResult(i), nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: sweep returned %v; a quarantined unit must not fail the sweep", workers, err)
		}
		var qe *QuarantineError
		if err := rn.FinishErr(); !errors.As(err, &qe) || len(qe.Units) != 1 ||
			qe.Units[0].Unit != schedKeys()[poisoned] {
			t.Fatalf("workers=%d: FinishErr = %v, want the poisoned unit named", workers, err)
		}
		rn.Close()
		if n := stale.Load(); n != 0 {
			t.Fatalf("workers=%d: %d units ran on a wedged worker state", workers, n)
		}
		if built.Load() != released.Load() {
			t.Fatalf("workers=%d: built %d states, released %d", workers, built.Load(), released.Load())
		}
		for i := range done {
			if done[i] != (i != poisoned) {
				t.Fatalf("workers=%d: done[%d] = %v", workers, i, done[i])
			}
			if i != poisoned && !reflect.DeepEqual(results[i], wantResult(i)) {
				t.Fatalf("workers=%d: unit %d result %v", workers, i, results[i])
			}
		}
	}
}

func TestSweepInterruptAndResume(t *testing.T) {
	const killAfter = 6
	for _, workers := range schedWorkers {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		rn := openSched(t, ctx, dir, false)
		var completed atomic.Int64
		rn.Hooks.AfterUnit = func(string) {
			if completed.Add(1) == killAfter {
				cancel()
			}
		}
		do := func(_ struct{}, i int) (unitResult, error) { return wantResult(i), nil }
		results, done, err := Sweep(rn, Units[struct{}, unitResult]{
			Keys: schedKeys(), Workers: workers, Do: do,
		})
		cancel()
		rn.Close()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: canceled sweep returned %v, want ErrInterrupted", workers, err)
		}
		n := 0
		for i, d := range done {
			if d {
				n++
				if !reflect.DeepEqual(results[i], wantResult(i)) {
					t.Fatalf("workers=%d: completed unit %d result %v", workers, i, results[i])
				}
			}
		}
		// Units already in flight at the cancel finish; a pool of one has
		// exactly one in flight, the one whose completion canceled.
		if n < killAfter || (workers == 1 && n != killAfter) {
			t.Fatalf("workers=%d: %d units completed, want at least %d (exactly, for one worker)",
				workers, n, killAfter)
		}

		rn = openSched(t, context.Background(), dir, true)
		var reran atomic.Int64
		results, done, err = Sweep(rn, Units[struct{}, unitResult]{
			Keys: schedKeys(), Workers: workers,
			Do: func(s struct{}, i int) (unitResult, error) {
				reran.Add(1)
				return do(s, i)
			},
		})
		rn.Close()
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		if !reflect.DeepEqual(results, wantResults()) || !allDone(done) {
			t.Fatalf("workers=%d: resumed sweep did not complete the set", workers)
		}
		if got := reran.Load(); got != int64(schedUnits-n) {
			t.Fatalf("workers=%d: resume ran %d units, want the %d left", workers, got, schedUnits-n)
		}
	}
}

func TestSweepStateErrorStops(t *testing.T) {
	for _, workers := range schedWorkers {
		var calls atomic.Int64
		_, done, err := Sweep(nil, Units[*workerState, unitResult]{
			Keys:    schedKeys(),
			Workers: workers,
			NewState: func() (*workerState, error) {
				return nil, errors.New("no board")
			},
			Do: func(_ *workerState, i int) (unitResult, error) {
				calls.Add(1)
				return wantResult(i), nil
			},
		})
		if err == nil || !strings.Contains(err.Error(), "no board") {
			t.Fatalf("workers=%d: sweep returned %v, want the state error", workers, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d units ran without a worker state", workers, calls.Load())
		}
		for i, d := range done {
			if d {
				t.Fatalf("workers=%d: unit %d marked done", workers, i)
			}
		}
	}
}

func TestSweepUnitErrorStops(t *testing.T) {
	for _, workers := range schedWorkers {
		var calls atomic.Int64
		_, _, err := Sweep(nil, Units[struct{}, unitResult]{
			Keys:    schedKeys(),
			Workers: workers,
			Do: func(_ struct{}, i int) (unitResult, error) {
				calls.Add(1)
				return unitResult{}, errors.New("unit failed")
			},
		})
		if err == nil || err.Error() != "unit failed" {
			t.Fatalf("workers=%d: sweep returned %v, want the unit error", workers, err)
		}
		if n := calls.Load(); n > int64(workers) {
			t.Fatalf("workers=%d: %d units ran after the first error", workers, n)
		}
	}
}
