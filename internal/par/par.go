// Package par is the one worker pool: the engine's scans, the process phase,
// the zpack writer's segment sealing and per-column table work run on Do.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Panic is the error Do returns for a call of fn that panicked with Value.
type Panic struct{ Value any }

func (p *Panic) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Do calls fn(w, i) for every i in [0, n) on min(workers, n) goroutines, one
// of them the caller's. Indices are drawn in ascending order from one cursor;
// w names the goroutine that drew i, so fn may keep per-worker scratch.
//
// A call that returns an error or panics (returned as a *Panic) is a failure:
// no index is drawn after one, and Do returns the error at the lowest failing
// index. A drawn index always runs, so every index below that one ran once
// and succeeded: the error is the one a sequential loop would stop at,
// whatever the scheduling.
func Do(n, workers int, fn func(w, i int) error) error {
	workers = max(1, min(workers, n))
	var (
		cursor atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	work := func(w int) {
		for !failed.Load() { // checked before the draw: a drawn index runs
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if err := call(fn, w, i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < errIdx {
					errIdx, first = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return first
}

// call runs fn(w, i), returning a panic as a *Panic.
func call(fn func(w, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Panic{Value: r}
		}
	}()
	return fn(w, i)
}
