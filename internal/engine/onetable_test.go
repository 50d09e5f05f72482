package engine_test

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// TestStoreHoldsOneTable pins the boundary of a store over one table, on
// every store: its own table resolves, any other name does not — Table
// returns nil, a query FROM it fails at Prepare, and zexec refuses to run
// over it.
func TestStoreHoldsOneTable(t *testing.T) {
	tb := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "revenue", Kind: dataset.KindFloat},
	})
	for i := range 40 {
		tb.AppendRow(dataset.SV([]string{"chair", "desk"}[i%2]), dataset.IV(int64(2000+i%5)), dataset.FV(float64(i)))
	}
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, tb); err != nil {
		t.Fatal(err)
	}
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	zq, err := zql.Parse("\nNAME | X      | Y         | Z\n*f1  | 'year' | 'revenue' | v1 <- 'product'.*")
	if err != nil {
		t.Fatal(err)
	}
	other, err := minisql.Parse("SELECT COUNT(*) AS n FROM other")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   engine.DB
	}{
		{"row", engine.NewRowStore(tb)},
		{"bitmap", engine.NewBitmapStore(tb)},
		{"column", engine.NewColumnStore(tb)},
		{"zpack", engine.NewColumnStoreFromSource(r)},
	} {
		name, db := c.name, c.db
		if db.Table("sales") == nil {
			t.Errorf("%s: Table(\"sales\") = nil", name)
		}
		if got := db.Table("other"); got != nil {
			t.Errorf("%s: Table(\"other\") = %q, want nil", name, got.Name)
		}
		if _, err := db.Prepare(other); err == nil || err.Error() != `engine: no table "other"` {
			t.Errorf("%s: Prepare(FROM other) = %v, want engine: no table \"other\"", name, err)
		}
		if _, err := zexec.Run(zq, db, zexec.Options{Table: "sales", Seed: 1}); err != nil {
			t.Errorf("%s: zexec over its own table: %v", name, err)
		}
		if _, err := zexec.Run(zq, db, zexec.Options{Table: "other", Seed: 1}); err == nil || err.Error() != `zexec: back-end has no table "other"` {
			t.Errorf("%s: zexec over table other = %v, want zexec: back-end has no table \"other\"", name, err)
		}
	}
}
