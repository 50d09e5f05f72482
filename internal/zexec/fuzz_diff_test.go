package zexec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/zql"
)

// Differential fuzz at the ZQL layer: random constraint conjunctions —
// deliberately including mis-ordered shapes like an expensive LIKE-over-float
// written first and a selective range last — injected into a Z-iterating
// script, executed across back-ends, optimization levels, and the conjunct
// planner toggle. Every configuration must render byte-identically to the
// sequential row-store reference with planning off.

// fuzzConstraintPool holds conjunct fragments over the sales fixture, from
// cheap categorical equalities to the fallback-shaped worst case.
var fuzzConstraintPool = []string{
	"location = 'US'",
	"location != 'UK'",
	"product != 'lamp'",
	"year >= 2012",
	"year BETWEEN 2011 AND 2014",
	"month IN (1, 2, 3, 4, 5, 6)",
	"weight > 0.5",
	"sales LIKE '%1%'", // stringifies every float cell: costliest shape
	"zip LIKE '9%'",
	"profit < 100000",
	"NOT (month BETWEEN 11 AND 12)",
}

// fuzzZQLScript renders the threshold template with a random conjunction.
func fuzzZQLScript(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(fuzzConstraintPool))
	conjs := make([]string, n)
	for i := 0; i < n; i++ {
		conjs[i] = fuzzConstraintPool[perm[i]]
	}
	where := strings.Join(conjs, " AND ")
	return fmt.Sprintf(`NAME | X      | Y       | Z                 | CONSTRAINTS | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | %s | v2 <- argany(v1)[t>0] T(f1)
*f2  | 'year' | 'sales' | v2                | %s |
`, where, where)
}

// TestDifferentialZQLBounded runs the seeded ZQL differential matrix on every
// `go test` (and under -race in CI).
func TestDifferentialZQLBounded(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	tbl := fixtureSales()
	type variant struct {
		name string
		db   engine.DB
	}
	variants := []variant{
		{"row", engine.NewRowStore(tbl)},
		{"bitmap", engine.NewBitmapStore(tbl)},
		{"column", engine.NewColumnStore(tbl)},
		{"fragmented3", engine.NewColumnStoreAt(engine.NewMemSource(tbl), evenCuts(engine.NewMemSource(tbl).NumSegments())...)},
	}
	oracle := engine.NewRowStore(tbl)
	oracle.SetPlanning(false)
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		src := fuzzZQLScript(rng)
		q, err := zql.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", i, err, src)
		}
		run := func(db engine.DB, opt OptLevel) string {
			res, err := Run(q, db, Options{Table: tbl.Name, Seed: 42, Opt: opt})
			if err != nil {
				t.Fatalf("seed %d: run: %v\n%s", i, err, src)
			}
			return encodeResult(res)
		}
		want := run(oracle, NoOpt)
		for _, v := range variants {
			for _, planning := range []bool{true, false} {
				v.db.(engine.Planner).SetPlanning(planning)
				for _, opt := range []OptLevel{NoOpt, IntraLine, IntraTask, InterTask} {
					if got := run(v.db, opt); got != want {
						t.Fatalf("seed %d: %s planning=%v opt=%d diverged\n%s\n--- got ---\n%s\n--- want ---\n%s",
							i, v.name, planning, opt, src, clip(got), clip(want))
					}
				}
			}
		}
	}
}
