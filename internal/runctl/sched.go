package runctl

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the default -workers value of the experiment CLIs:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Units describes one sweep of independent work units for Sweep. A unit
// is named by its checkpoint key and computed by Do on a worker's private
// state S (a runner map, a Target, an observer shard); its result R must
// JSON-round-trip exactly, since a resumed sweep reads it back from the
// checkpoint.
type Units[S, R any] struct {
	// Keys names every unit in the checkpoint. Results come back in Keys
	// order whatever the dispatch order or worker count.
	Keys []string
	// Order, when non-nil, is the dispatch order: every unit index once.
	// nil dispatches in Keys order.
	Order []int
	// Workers bounds the pool; <= 1 is a pool of one.
	Workers int
	// NewState, when non-nil, builds a worker's private state. It runs
	// before the worker's first unit and again before the next unit after
	// a quarantined one, whose panic may have wedged the old state.
	NewState func() (S, error)
	// Release, when non-nil, retires a worker's state: after a
	// quarantined unit and when the worker stops (flush shards here).
	Release func(S)
	// Do computes unit i.
	Do func(s S, i int) (R, error)
	// Check, when non-nil, vets a result restored from the checkpoint; a
	// rejected one is rerun.
	Check func(R) bool
	// Done, when non-nil, is told of every unit with a result:
	// checkpointed ones before any unit runs, run ones as they complete,
	// on the worker that ran them (so calls may be concurrent).
	Done func(i int, r R)
}

// Sweep runs every unit of u under rn and owns the whole per-unit policy:
// units already in the checkpoint are restored instead of run; each run
// unit executes inside rn.Protect and is checkpointed by rn.Complete; a
// quarantined unit costs only itself (its worker's state is released and
// rebuilt); rn.Err is polled before every unit; and the first error from
// NewState or Do stops every worker.
//
// The calling goroutine is one of the min(Workers, pending units)
// workers, so a pool of one is exactly a serial loop: the same calls in
// the same order, no goroutine. Sweep returns the results in Keys order
// with a mask of the units that have one — quarantined, interrupted and
// never-dispatched units are false — plus the first error, or else rn.Err
// (an interrupted sweep).
func Sweep[S, R any](rn *Run, u Units[S, R]) ([]R, []bool, error) {
	results := make([]R, len(u.Keys))
	done := make([]bool, len(u.Keys))
	order := u.Order
	if order == nil {
		order = make([]int, len(u.Keys))
		for i := range order {
			order[i] = i
		}
	}
	report := func(i int) {
		done[i] = true
		if u.Done != nil {
			u.Done(i, results[i])
		}
	}
	var pending []int
	for _, i := range order {
		var r R
		if rn.Lookup(u.Keys[i], &r) && (u.Check == nil || u.Check(r)) {
			results[i] = r
			report(i)
			continue
		}
		pending = append(pending, i)
	}

	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	work := func() {
		var s S
		live := false
		release := func() {
			if live && u.Release != nil {
				u.Release(s)
			}
			live = false
		}
		defer release()
		for {
			j := int(next.Add(1)) - 1
			if j >= len(pending) || firstErr.Load() != nil || rn.Err() != nil {
				return
			}
			if !live && u.NewState != nil {
				var err error
				if s, err = u.NewState(); err != nil {
					fail(err)
					return
				}
			}
			live = true
			i, key := pending[j], u.Keys[pending[j]]
			err := rn.Protect(key, func() error {
				r, err := u.Do(s, i)
				if err != nil {
					return err
				}
				if err := rn.Complete(key, r); err != nil {
					return err
				}
				results[i] = r
				return nil
			})
			var pe *PanicError
			switch {
			case errors.As(err, &pe):
				release()
			case err != nil:
				fail(err)
				return
			default:
				report(i)
			}
		}
	}

	workers := min(max(u.Workers, 1), len(pending))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if workers > 0 {
		work()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return results, done, *errp
	}
	return results, done, rn.Err()
}
