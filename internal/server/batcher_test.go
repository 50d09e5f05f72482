package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// slowDB wraps a real store, counting ExecuteBatch calls and holding each one
// open long enough for concurrent submissions to pile up behind it. A batch
// containing a plan whose SQL matches poison fails, modeling a store-side
// execution error.
type slowDB struct {
	engine.DB
	delay  time.Duration
	poison string
	calls  atomic.Int64
}

func (d *slowDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	d.calls.Add(1)
	time.Sleep(d.delay)
	if d.poison != "" {
		for _, p := range plans {
			if strings.Contains(p.SQL(), d.poison) {
				return nil, errors.New("poisoned batch")
			}
		}
	}
	return d.DB.ExecuteBatch(ctx, plans)
}

func batcherFixture(t *testing.T, delay time.Duration, poison string) (*slowDB, *batcher, []*engine.Plan) {
	t.Helper()
	tbl := workload.Sales(workload.SalesConfig{Rows: 2000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	db := &slowDB{DB: engine.NewRowStore(tbl), delay: delay, poison: poison}
	bat := newBatcher(db, 0)
	sqls := []string{
		"SELECT year, SUM(revenue) FROM sales GROUP BY year ORDER BY year",
		"SELECT product, COUNT(*) FROM sales GROUP BY product ORDER BY product",
		"SELECT year, AVG(profit) FROM sales WHERE product='product0000' GROUP BY year ORDER BY year",
	}
	plans := make([]*engine.Plan, len(sqls))
	for i, sql := range sqls {
		q, err := minisql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = db.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	return db, bat, plans
}

func TestBatcherCoalescesConcurrentSubmissions(t *testing.T) {
	db, bat, plans := batcherFixture(t, 30*time.Millisecond, "")
	// Sequential baselines for correctness comparison.
	want := make([]*engine.Result, len(plans))
	for i, p := range plans {
		r, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const submitters = 12
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pi := g % len(plans)
			results, err := bat.submit(context.Background(), []*engine.Plan{plans[pi]})
			if err != nil {
				errs <- err
				return
			}
			if err := sameResult(results[0], want[pi]); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	calls := db.calls.Load()
	if calls >= submitters {
		t.Errorf("engine saw %d batches for %d submissions; expected coalescing", calls, submitters)
	}
	s := bat.stats()
	if s.Submissions != submitters || s.Batches != calls || s.Coalesced == 0 {
		t.Errorf("stats = %+v (engine calls %d)", s, calls)
	}
}

func TestBatcherIsolatesErrorsToTheFailingSubmission(t *testing.T) {
	db, bat, plans := batcherFixture(t, 30*time.Millisecond, "product0000")
	// Occupy the drain so the next submissions coalesce into one
	// batch containing both the poisoned and a healthy plan.
	blocker := make(chan error, 1)
	go func() {
		_, err := bat.submit(context.Background(), []*engine.Plan{plans[0]})
		blocker <- err
	}()
	time.Sleep(10 * time.Millisecond)
	var wg sync.WaitGroup
	var poisonErr, goodErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, poisonErr = bat.submit(context.Background(), []*engine.Plan{plans[2]}) // matches poison
	}()
	go func() {
		defer wg.Done()
		_, goodErr = bat.submit(context.Background(), []*engine.Plan{plans[1]})
	}()
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if poisonErr == nil {
		t.Error("poisoned submission should fail")
	}
	if goodErr != nil {
		t.Errorf("healthy submission failed alongside the poisoned one: %v", goodErr)
	}
	if db.calls.Load() < 3 {
		t.Errorf("expected a fallback re-execution, saw %d engine calls", db.calls.Load())
	}
	// Accounting stays consistent through the fallback: the failed shared
	// attempt is replaced by its per-submission executions, so the "scans
	// saved" gap never goes negative and nothing counts as coalesced.
	s := bat.stats()
	if s.Batches > s.Submissions {
		t.Errorf("Batches %d > Submissions %d after fallback", s.Batches, s.Submissions)
	}
	if s.Coalesced != 0 {
		t.Errorf("Coalesced = %d, want 0 (shared batch failed)", s.Coalesced)
	}
}

// panicDB panics on any batch containing a plan whose SQL matches trigger,
// modeling a latent engine bug.
type panicDB struct {
	engine.DB
	trigger string
}

func (d *panicDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	for _, p := range plans {
		if strings.Contains(p.SQL(), d.trigger) {
			panic("latent engine bug")
		}
	}
	return d.DB.ExecuteBatch(ctx, plans)
}

func TestBatcherContainsEnginePanics(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 1000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	db := &panicDB{DB: engine.NewRowStore(tbl), trigger: "product0000"}
	bat := newBatcher(db, 0)
	prep := func(sql string) *engine.Plan {
		q, err := minisql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bad := prep("SELECT COUNT(*) FROM sales WHERE product='product0000'")
	good := prep("SELECT COUNT(*) FROM sales")
	if _, err := bat.submit(context.Background(), []*engine.Plan{bad}); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking submission: err = %v, want contained panic", err)
	}
	// The batcher (and its draining flag) must survive to serve the next
	// submission.
	results, err := bat.submit(context.Background(), []*engine.Plan{good})
	if err != nil {
		t.Fatalf("healthy submission after panic: %v", err)
	}
	if len(results) != 1 || results[0].Len() != 1 {
		t.Fatalf("results = %+v", results)
	}
}

// sameResult compares two engine results cell by cell.
func sameResult(got, want *engine.Result) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		for j := range got.Cols {
			if !got.Value(i, j).Equal(want.Value(i, j)) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, j, got.Value(i, j), want.Value(i, j))
			}
		}
	}
	return nil
}
