package zexec

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/zql"
)

// similarityTopKSrc is a drawn-input top-k similarity search — the workload
// that exercises the bounded heap, the abandoning kernels, and the
// Collection metadata shared by every worker.
const similarityTopKSrc = `
NAME | X      | Y       | Z                 | PROCESS
-f1  |        |         |                   |
f2   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=3] D(f1, f2)
*f3  | 'year' | 'sales' | v2                |`

// TestProcessParallelConcurrentRuns hammers one shared engine.DB with
// concurrent process-phase executions, each running the worker pool, and
// checks every result against the sequential oracle. Run under -race (CI
// does) this is the data-race audit for the parallel tuple evaluator.
func TestProcessParallelConcurrentRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.NewRowStore(fixtureSales())
	q, err := zql.Parse(similarityTopKSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Table:  "sales",
		Seed:   42,
		Inputs: map[string]*vis.Visualization{"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5})},
	}
	oracleOpts := base
	oracleOpts.Opt = NoOpt
	oracle, err := Run(q, db, oracleOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(oracle)

	const goroutines, iters = 8, 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				opts := base
				opts.Opt = InterTask
				res, err := Run(q, db, opts)
				if err != nil {
					t.Errorf("parallel run: %v", err)
					return
				}
				if got := encodeResult(res); got != want {
					t.Errorf("parallel result diverged from sequential oracle\n got: %q\nwant: %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProcessWorkerPanicContained mirrors the server batcher's panic test:
// a panic on a pool goroutine would kill the whole process (no net/http
// recover out there), so the pool must convert it into an error on the Run
// that owns it.
func TestProcessWorkerPanicContained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.NewRowStore(fixtureSales())
	src := `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=2] boom(f1)
*f2  | 'year' | 'sales' | v2                |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(q, db, Options{
		Table: "sales",
		Opt:   InterTask,
		UserFuncs: map[string]UserFunc{
			"boom": func([]*vis.Visualization) float64 { panic("kaboom") },
		},
	})
	if err == nil {
		t.Fatal("Run returned nil error for a panicking user function")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %q does not surface the contained panic", err)
	}
}

// TestProcessParallelErrorIsDeterministic pins the pool's error selection:
// whatever the interleaving, the reported failure is the one at the lowest
// tuple index — the error the sequential loop surfaces.
func TestProcessParallelErrorIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.NewRowStore(fixtureSales())
	src := `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=2] pick(f1)
*f2  | 'year' | 'sales' | v2                |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's products iterate in a deterministic order; fail on every
	// tuple with a message identifying it, and require the first tuple's
	// message every time.
	var mu sync.Mutex
	calls := 0
	opts := Options{
		Table: "sales",
		Opt:   InterTask,
		UserFuncs: map[string]UserFunc{
			"pick": func([]*vis.Visualization) float64 {
				mu.Lock()
				calls++
				mu.Unlock()
				panic("tuple failure")
			},
		},
	}
	for trial := 0; trial < 10; trial++ {
		_, err := Run(q, db, opts)
		if err == nil {
			t.Fatal("expected an error")
		}
		if !strings.Contains(err.Error(), "tuple failure") {
			t.Fatalf("trial %d: unexpected error %q", trial, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("user function never ran")
	}
}

// TestTopKZeroKeepsOracleErrorBehavior pins the [k=0] edge: the pruned path
// must not skip scoring, or errors the sequential oracle surfaces would
// vanish at optimized levels.
func TestTopKZeroKeepsOracleErrorBehavior(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.NewRowStore(fixtureSales())
	src := `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=0] nosuch(f1)
*f2  | 'year' | 'sales' | v2                |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []OptLevel{NoOpt, InterTask} {
		_, err := Run(q, db, Options{Table: "sales", Opt: opt})
		if err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Errorf("opt %v: err = %v, want unregistered user function error", opt, err)
		}
	}
}

// TestTopKNaNScoresDeterministic pins the shared score order: a user
// function returning NaN for some tuples must neither make parallel top-k
// selection depend on worker scheduling nor diverge from the sequential
// oracle — scoreBetter ranks NaN after every number on both paths.
func TestTopKNaNScoresDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.NewRowStore(fixtureSales())
	src := `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=3] wobbly(f1)
*f2  | 'year' | 'sales' | v2                |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	opts := Options{
		Table: "sales",
		Opt:   InterTask,
		UserFuncs: map[string]UserFunc{
			"wobbly": func(args []*vis.Visualization) float64 {
				// NaN for every product whose series is flat, a real score
				// otherwise.
				ys := args[0].Ys()
				if ys[0] == ys[len(ys)-1] {
					return nan
				}
				return ys[len(ys)-1] - ys[0]
			},
		},
	}
	oracleOpts := opts
	oracleOpts.Opt = NoOpt
	oracle, err := Run(q, db, oracleOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(oracle)
	for trial := 0; trial < 15; trial++ {
		res, err := Run(q, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeResult(res); got != want {
			t.Fatalf("trial %d: NaN-scored top-k diverged from the oracle\n got: %q\nwant: %q", trial, got, want)
		}
	}
}

// TestProcessWorkersFollowLevelAndGOMAXPROCS pins the derived worker count by
// the user-function calls in flight at once: one at NoOpt whatever the
// cores, one at Inter-Task on one core, and never more than GOMAXPROCS.
func TestProcessWorkersFollowLevelAndGOMAXPROCS(t *testing.T) {
	db := engine.NewRowStore(fixtureSales())
	q, err := zql.Parse(`
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmax(v1)[k=2] busy(f1)
*f2  | 'year' | 'sales' | v2                |`)
	if err != nil {
		t.Fatal(err)
	}
	maxInFlight := func(opt OptLevel, procs int) int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var inFlight, peak atomic.Int64
		busy := func(args []*vis.Visualization) float64 {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond) // let other workers start
			inFlight.Add(-1)
			return args[0].Ys()[0]
		}
		if _, err := Run(q, db, Options{Table: "sales", Opt: opt, UserFuncs: map[string]UserFunc{"busy": busy}}); err != nil {
			t.Fatal(err)
		}
		return peak.Load()
	}
	if got := maxInFlight(NoOpt, 4); got != 1 {
		t.Errorf("NoOpt at GOMAXPROCS 4: %d calls in flight, want 1", got)
	}
	if got := maxInFlight(InterTask, 1); got != 1 {
		t.Errorf("InterTask at GOMAXPROCS 1: %d calls in flight, want 1", got)
	}
	for _, procs := range []int{2, 4} {
		if got := maxInFlight(InterTask, procs); got < 1 || got > int64(procs) {
			t.Errorf("InterTask at GOMAXPROCS %d: %d calls in flight, want 1..%d", procs, got, procs)
		}
	}
}
