package client

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zpack"
)

func testTable() *Session {
	t := workload.Sales(workload.SalesConfig{Rows: 10000, Products: 8, Years: 8, Cities: 4, Seed: 2})
	s, err := Open(t, WithSeed(7))
	if err != nil {
		panic(err)
	}
	return s
}

const risingQuery = `
NAME | X      | Y         | Z                 | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmax(v1)[k=2] T(f1)
*f2  | 'year' | 'revenue' | v2                |`

func TestQueryEndToEnd(t *testing.T) {
	s := testTable()
	res, err := s.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Len() != 2 {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	if len(res.Bindings["v2"]) != 2 {
		t.Errorf("v2 = %v", res.Bindings["v2"])
	}
}

func TestQueryWithInputs(t *testing.T) {
	s := testTable()
	src := `
NAME | X      | Y         | Z                 | PROCESS
-f1  |        |           |                   |
f2   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmin(v1)[k=1] D(f1, f2)
*f3  | 'year' | 'revenue' | v2                |`
	res, err := s.QueryWithInputs(src, map[string][]float64{
		"f1": {1, 2, 3, 4, 5, 6, 7, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Bindings["v2"]
	if len(got) != 1 {
		t.Fatalf("v2 = %v", got)
	}
	// Products 0 and 4 rise (trendShape): the best match must be one of them.
	if got[0] != "product0000" && got[0] != "product0004" {
		t.Errorf("best match = %v, want a rising product", got)
	}
}

func TestOptions(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 2000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	s, err := Open(tbl, WithOptLevel(zexec.NoOpt), WithMetric("dtw"), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	// NoOpt issues one request per visualization.
	if res.Stats.Requests < 4 {
		t.Errorf("NoOpt requests = %d", res.Stats.Requests)
	}
	if _, err := Open(tbl, WithMetric("nope")); err == nil {
		t.Error("bad metric should error")
	}
}

// TestBackendOptions runs the same query through Open's column executor, a
// zpack session, and the paper's row and bitmap baselines opened with OpenDB;
// the back-end must never change results. The row store is the oracle.
func TestBackendOptions(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 2000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	ref, err := OpenDB(engine.NewRowStore(tbl), "sales", WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, tbl); err != nil {
		t.Fatal(err)
	}
	sessions := map[string]func() (*Session, error){
		"open":   func() (*Session, error) { return Open(tbl, WithSeed(3)) },
		"zpack":  func() (*Session, error) { return OpenZpack(path, WithSeed(3)) },
		"bitmap": func() (*Session, error) { return OpenDB(engine.NewBitmapStore(tbl), "sales", WithSeed(3)) },
	}
	for name, open := range sessions {
		s, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Query(risingQuery)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Outputs) != len(want.Outputs) || res.Outputs[0].Len() != want.Outputs[0].Len() {
			t.Fatalf("%s: outputs differ from row store", name)
		}
		for i, v := range res.Outputs[0].Vis {
			if v.Label() != want.Outputs[0].Vis[i].Label() {
				t.Errorf("%s: output %d = %q, want %q", name, i, v.Label(), want.Outputs[0].Vis[i].Label())
			}
		}
	}
}

// TestOpenZpackBackendNames: there is no back-end name to pass, so a zpack
// session and an Open session both run on the column executor, and the zpack
// session serves the file's table under its stored name.
func TestOpenZpackBackendNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.zpack")
	tbl := workload.Sales(workload.SalesConfig{Rows: 2000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	if err := zpack.Build(path, tbl); err != nil {
		t.Fatal(err)
	}
	zs, err := OpenZpack(path, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Open(tbl, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"OpenZpack": zs, "Open": ms} {
		if got := s.db.Name(); got != "columnstore" {
			t.Errorf("%s back-end = %q, want columnstore", name, got)
		}
		if s.Table() != tbl.Name {
			t.Errorf("%s table = %q, want %q", name, s.Table(), tbl.Name)
		}
		if _, err := s.Query(risingQuery); err != nil {
			t.Fatalf("%s query: %v", name, err)
		}
	}
	if _, err := OpenZpack(filepath.Join(t.TempDir(), "missing.zpack")); err == nil {
		t.Error("OpenZpack of a missing file should error")
	}
}

func TestRecommend(t *testing.T) {
	s := testTable()
	recs, err := s.Recommend(context.Background(), "year", "revenue", "product", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("%d recommendations", len(recs))
	}
}

func TestHistoryRecordsSuccessAndFailure(t *testing.T) {
	s := testTable()
	if _, err := s.Query(risingQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("garbage ~~~"); err == nil {
		t.Fatal("garbage should fail")
	}
	h := s.History()
	if len(h) != 2 {
		t.Fatalf("history = %d entries", len(h))
	}
	if h[0].Err != "" || h[0].Outputs != 1 || h[0].Stats.SQLQueries == 0 {
		t.Errorf("success entry = %+v", h[0])
	}
	if h[0].Stats.RowsScanned == 0 {
		t.Errorf("history should record rows scanned, got %+v", h[0].Stats)
	}
	if h[1].Err == "" {
		t.Errorf("failure entry = %+v", h[1])
	}
	// The returned slice is a copy.
	h[0].ZQL = "mutated"
	if s.History()[0].ZQL == "mutated" {
		t.Error("History must return a copy")
	}
}

func TestOpenCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("product,year,sales\nchair,2014,10\nchair,2015,20\ndesk,2014,30\ndesk,2015,15\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenCSV("t", path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argany(v1)[t>0] T(f1)
*f2  | 'year' | 'sales' | v2                |`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bindings["v2"]; len(got) != 1 || got[0] != "chair" {
		t.Errorf("rising products = %v, want [chair]", got)
	}
	if _, err := OpenCSV("t", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDescribe(t *testing.T) {
	s := testTable()
	d := s.Describe()
	if !strings.Contains(d, "sales:") || !strings.Contains(d, "product") || !strings.Contains(d, "revenue") {
		t.Errorf("describe = %q", d)
	}
}

func TestHistoryCap(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 500, Products: 3, Years: 4, Cities: 2, Seed: 2})
	s, err := Open(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Use parse failures as cheap history entries with distinguishable text.
	const n = DefaultHistoryLimit + 10
	for i := 0; i < n; i++ {
		s.Query(fmt.Sprintf("bad query %d ~~~", i))
	}
	h := s.History()
	if len(h) != DefaultHistoryLimit {
		t.Fatalf("history = %d entries, want %d", len(h), DefaultHistoryLimit)
	}
	// The most recent entries survive, oldest first.
	for i, e := range h {
		if want := fmt.Sprintf("bad query %d ~~~", n-DefaultHistoryLimit+i); e.ZQL != want {
			t.Fatalf("h[%d].ZQL = %q, want %q", i, e.ZQL, want)
		}
	}
}

func TestOpenDB(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 2000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	db := engine.NewRowStore(tbl)
	s, err := OpenDB(db, "sales", WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	if _, err := OpenDB(db, "missing"); err == nil {
		t.Error("OpenDB over a missing table should error")
	}
}
