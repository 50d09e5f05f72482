package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDoRunsEveryIndexOnce: without a failure, every index runs exactly once
// and w stays below min(workers, n).
func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 4}, {1, 4}, {5, 1}, {100, 3}, {3, 8}, {7, 0}} {
		ran := make([]atomic.Int32, c.n)
		var badW atomic.Bool
		err := Do(c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= max(1, min(c.workers, c.n)) {
				badW.Store(true)
			}
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		if badW.Load() {
			t.Errorf("n=%d workers=%d: a worker index out of range", c.n, c.workers)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, got)
			}
		}
	}
}

// TestDoLowestFailingIndexWins: a higher index that fails first does not
// outrank a lower one that fails later, and every index below the reported
// failure ran exactly once.
func TestDoLowestFailingIndexWins(t *testing.T) {
	const n, low, high = 64, 9, 10
	for round := 0; round < 50; round++ {
		ran := make([]atomic.Int32, n)
		highFailed := make(chan struct{})
		err := Do(n, 4, func(_, i int) error {
			ran[i].Add(1)
			switch i {
			case high:
				close(highFailed)
				return fmt.Errorf("index %d", i)
			case low:
				// Index low is drawn before high, so it is running (or has
				// run) when high fails: wait for high's failure first.
				<-highFailed
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("index %d", low) {
			t.Fatalf("round %d: got %v, want index %d's error", round, err, low)
		}
		for i := 0; i < low; i++ {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("round %d: index %d below the failure ran %d times", round, i, got)
			}
		}
	}
}

// TestDoPanicIsAnError: a panic comes back as a *Panic carrying the value,
// at one worker and at several.
func TestDoPanicIsAnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(20, workers, func(_, i int) error {
			if i == 7 {
				panic("kaboom")
			}
			return nil
		})
		var p *Panic
		if !errors.As(err, &p) || p.Value != "kaboom" {
			t.Fatalf("workers=%d: got %v, want a contained panic", workers, err)
		}
		if !strings.Contains(err.Error(), "panic: kaboom") {
			t.Errorf("workers=%d: error %q does not name the panic", workers, err)
		}
	}
}

// TestDoOneWorkerIsTheSequentialLoop: with one worker every call runs on the
// caller's goroutine, in order, and nothing after the failure runs.
func TestDoOneWorkerIsTheSequentialLoop(t *testing.T) {
	caller := goroutineID()
	var order []int
	errStop := errors.New("stop")
	err := Do(10, 1, func(w, i int) error {
		if w != 0 {
			t.Errorf("index %d on worker %d", i, w)
		}
		if id := goroutineID(); id != caller {
			t.Errorf("index %d ran on goroutine %s, the caller is %s", i, id, caller)
		}
		order = append(order, i)
		if i == 4 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("got %v, want %v", err, errStop)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("ran %v, want [0 1 2 3 4]", order)
	}
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}
