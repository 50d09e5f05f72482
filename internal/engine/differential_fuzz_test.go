package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// Differential fuzzer: random queries over random datasets, executed on every
// store variant with conjunct order shuffled vs. planner-ordered, asserting
// bit-identical results against the boxed reference executor
// (reference_test.go). The planner reorders compiled conjuncts and the
// column store masks late conjunct evaluation — none of it may ever change a
// result byte.

// fuzzTable builds a random table: two categorical columns of random
// cardinality, an int column, and a float column restricted to quarters
// (dyadic rationals accumulate exactly, so fragmented SUM/AVG stay bit-identical
// to the sequential fold) with occasional NaN. The cardinalities fall on both
// sides of the packed layout's boundaries: c0 around 256 entries (one- and
// two-byte codes), n below 256, between, and past the 4096 an int dictionary
// holds (raw int64s), so every width, the raw fallback and — over the small
// dictionaries — the all-true fold meet the reference.
func fuzzTable(rng *rand.Rand) *dataset.Table {
	t := dataset.NewTable("t", []dataset.Field{
		{Name: "c0", Kind: dataset.KindString},
		{Name: "c1", Kind: dataset.KindString},
		{Name: "n", Kind: dataset.KindInt},
		{Name: "f", Kind: dataset.KindFloat},
	})
	rowChoices := []int{0, 3, 100, SegmentSize, SegmentSize + 5, 2*SegmentSize + 123}
	rows := rowChoices[rng.Intn(len(rowChoices))]
	card0 := []int{1 + rng.Intn(12), 250 + rng.Intn(12)}[rng.Intn(2)]
	card1 := 1 + rng.Intn(5)
	cardN := []int{50, 50, 300, 2 * dataset.MaxIntDictCardinality}[rng.Intn(4)]
	for i := 0; i < rows; i++ {
		f := float64(rng.Intn(400)-100) / 4
		if rng.Intn(40) == 0 {
			f = math.NaN()
		}
		t.AppendRow(
			dataset.SV(fmt.Sprintf("v%d", rng.Intn(card0))),
			dataset.SV(fmt.Sprintf("w%d", rng.Intn(card1))),
			dataset.IV(int64(rng.Intn(cardN)-10)),
			dataset.FV(f),
		)
	}
	return t
}

// fuzzLeaf builds one random predicate leaf, mixing hits, guaranteed misses
// (unseen values, inverted ranges), and deliberately mis-typed conjuncts
// (LIKE over a numeric column) that force the fallback path.
func fuzzLeaf(rng *rand.Rand) minisql.Expr {
	catCol := []string{"c0", "c1"}[rng.Intn(2)]
	numCol := []string{"n", "f"}[rng.Intn(2)]
	catVal := func() dataset.Value {
		if rng.Intn(5) == 0 {
			return dataset.SV("zz-unseen")
		}
		return dataset.SV(fmt.Sprintf("%c%d", "vw"[rng.Intn(2)], rng.Intn(13)))
	}
	numVal := func() dataset.Value {
		if rng.Intn(2) == 0 {
			return dataset.IV(int64(rng.Intn(80) - 20))
		}
		return dataset.FV(float64(rng.Intn(500)-150) / 4)
	}
	switch rng.Intn(7) {
	case 0:
		op := []minisql.CmpOp{minisql.CmpEq, minisql.CmpNe}[rng.Intn(2)]
		return &minisql.Compare{Col: catCol, Op: op, Val: catVal()}
	case 1:
		op := minisql.CmpOp(rng.Intn(6))
		return &minisql.Compare{Col: numCol, Op: op, Val: numVal()}
	case 2:
		vals := make([]dataset.Value, 1+rng.Intn(3))
		for i := range vals {
			vals[i] = catVal()
		}
		return &minisql.In{Col: catCol, Vals: vals}
	case 3:
		vals := make([]dataset.Value, 1+rng.Intn(3))
		for i := range vals {
			vals[i] = numVal()
		}
		return &minisql.In{Col: numCol, Vals: vals}
	case 4:
		pats := []string{"v%", "w%", "%1", "%_%", "v_", "zz%"}
		col := catCol
		if rng.Intn(6) == 0 {
			col = numCol // fallback-shaped: LIKE over a numeric column
		}
		return &minisql.Like{Col: col, Pattern: pats[rng.Intn(len(pats))]}
	case 5:
		lo, hi := numVal(), numVal()
		return &minisql.Between{Col: numCol, Lo: lo, Hi: hi}
	default:
		op := minisql.CmpOp(rng.Intn(6))
		return &minisql.Compare{Col: numCol, Op: op, Val: numVal()}
	}
}

// fuzzConjunct wraps leaves into composite shapes occasionally.
func fuzzConjunct(rng *rand.Rand) minisql.Expr {
	switch rng.Intn(6) {
	case 0:
		return &minisql.Or{Args: []minisql.Expr{fuzzLeaf(rng), fuzzLeaf(rng)}}
	case 1:
		return &minisql.Not{Arg: fuzzLeaf(rng)}
	default:
		return fuzzLeaf(rng)
	}
}

// fuzzQuery builds one random query over the fuzz table schema.
func fuzzQuery(rng *rand.Rand) *minisql.Query {
	q := &minisql.Query{From: "t", Limit: -1}
	nconj := rng.Intn(5)
	if nconj == 1 {
		q.Where = fuzzConjunct(rng)
	} else if nconj > 1 {
		args := make([]minisql.Expr, nconj)
		for i := range args {
			args[i] = fuzzConjunct(rng)
		}
		q.Where = &minisql.And{Args: args}
	}
	aggCols := []string{"n", "f", "*"} // "*" means COUNT(*)
	aggFns := []minisql.AggFunc{minisql.AggSum, minisql.AggAvg, minisql.AggCount, minisql.AggMin, minisql.AggMax}
	addAggs := func() {
		for i := 0; i <= rng.Intn(2); i++ {
			col := aggCols[rng.Intn(len(aggCols))]
			if col == "*" {
				q.Select = append(q.Select, minisql.SelectItem{Agg: minisql.AggCount, Col: "*", Alias: fmt.Sprintf("a%d", i)})
			} else {
				q.Select = append(q.Select, minisql.SelectItem{Agg: aggFns[rng.Intn(len(aggFns))], Col: col, Alias: fmt.Sprintf("a%d", i)})
			}
		}
	}
	switch rng.Intn(4) {
	case 0: // plain projection, scan order
		q.Select = []minisql.SelectItem{{Col: "c0"}, {Col: "n"}, {Col: "f"}}
	case 1: // global aggregate
		addAggs()
	default: // grouped aggregate, 1-2 keys, occasionally binned
		nkeys := 1 + rng.Intn(2)
		cols := []string{"c0", "c1"}
		if rng.Intn(3) == 0 {
			cols[rng.Intn(2)] = "n" // a dictionary-coded (or raw) int key
		}
		for k := 0; k < nkeys; k++ {
			gk := minisql.GroupKey{Col: cols[k]}
			if rng.Intn(6) == 0 {
				gk = minisql.GroupKey{Col: "f", Bin: 2}
			}
			q.GroupBy = append(q.GroupBy, gk)
			q.Select = append(q.Select, minisql.SelectItem{Col: gk.Col, Bin: gk.Bin})
		}
		addAggs()
	}
	if rng.Intn(3) == 0 {
		q.Limit = rng.Intn(20)
	}
	return q
}

// shuffleWhere returns a copy of q whose top-level AND legs are permuted, or
// nil when there is nothing to shuffle. The copy shares sub-expressions: the
// engine never mutates the AST.
func shuffleWhere(q *minisql.Query, rng *rand.Rand) *minisql.Query {
	and, ok := q.Where.(*minisql.And)
	if !ok || len(and.Args) < 2 {
		return nil
	}
	perm := rng.Perm(len(and.Args))
	args := make([]minisql.Expr, len(and.Args))
	for i, j := range perm {
		args[i] = and.Args[j]
	}
	qq := *q
	qq.Where = &minisql.And{Args: args}
	return &qq
}

type fuzzVariant struct {
	name     string
	db       DB
	planning bool
}

func fuzzVariants(tb *dataset.Table) []fuzzVariant {
	var out []fuzzVariant
	mk := func(name string, db DB) {
		out = append(out, fuzzVariant{name + "/plan", db, true})
		out = append(out, fuzzVariant{name + "/noplan", db, false})
	}
	mk("row", NewRowStore(tb))
	mk("bitmap", NewBitmapStore(tb))
	mk("column", NewColumnStore(tb))
	mk("fragmented", evenStore(3, tb))
	return out
}

// diffOne runs one differential round: one random dataset, a handful of
// random queries, every store variant, written and shuffled conjunct order,
// single and batch execution — all against the boxed reference executor.
func diffOne(t *testing.T, dataSeed, querySeed int64) {
	t.Helper()
	drng := rand.New(rand.NewSource(dataSeed))
	tb := fuzzTable(drng)

	qrng := rand.New(rand.NewSource(querySeed))
	queries := make([]*minisql.Query, 4)
	for i := range queries {
		queries[i] = fuzzQuery(qrng)
	}

	// The fuzzer's own queries carry no ORDER BY; a second generator (so the
	// committed seeds keep producing the queries they always did) adds an
	// ordered, sometimes limited, variant of each.
	orng := rand.New(rand.NewSource(querySeed ^ 0x0bde))
	for _, q := range queries[:4] {
		queries = append(queries, orderedVariant(q, orng))
	}

	// The oracle is the boxed row-at-a-time reference executor, over a copy
	// of the table whose integers are raw int64s whatever their cardinality:
	// its row predicates test every cell, where the stores' decide a
	// dictionary-coded column once per dictionary entry.
	wide := dataset.NewTable(tb.Name, tb.Fields())
	wide.Column("n").SetRawInts()
	for i := 0; i < tb.NumRows(); i++ {
		wide.AppendRow(tb.Row(i)...)
	}
	want := make([][]dataset.Row, len(queries))
	for i, q := range queries {
		want[i] = refExecute(t, wide, q)
	}

	for _, v := range fuzzVariants(tb) {
		if p, ok := v.db.(Planner); ok {
			p.SetPlanning(v.planning)
		}
		// Single execution, written then shuffled conjunct order.
		for i, q := range queries {
			res, err := execQuery(v.db, q)
			if err != nil {
				t.Fatalf("%s %q: %v", v.name, q.SQL(), err)
			}
			if err := sameRows(res.Rows(), want[i]); err != nil {
				t.Fatalf("%s mismatch on %q: %v", v.name, q.SQL(), err)
			}
			if sq := shuffleWhere(q, qrng); sq != nil {
				res, err := execQuery(v.db, sq)
				if err != nil {
					t.Fatalf("%s shuffled %q: %v", v.name, sq.SQL(), err)
				}
				if err := sameRows(res.Rows(), want[i]); err != nil {
					t.Fatalf("%s shuffled mismatch on %q: %v", v.name, sq.SQL(), err)
				}
			}
		}
		// Batch execution: same plans, shared-scan path.
		plans := make([]*Plan, len(queries))
		var err error
		for i, q := range queries {
			if plans[i], err = v.db.Prepare(q); err != nil {
				t.Fatalf("%s prepare %q: %v", v.name, q.SQL(), err)
			}
		}
		results, err := v.db.ExecuteBatch(context.Background(), plans)
		if err != nil {
			t.Fatalf("%s batch: %v", v.name, err)
		}
		for i, res := range results {
			if err := sameRows(res.Rows(), want[i]); err != nil {
				t.Fatalf("%s batch mismatch on %q: %v", v.name, queries[i].SQL(), err)
			}
		}
	}
}

// TestDifferentialQueryBounded is the deterministic slice of the fuzzer that
// runs on every `go test` (and under -race in CI): a fixed grid of seed
// pairs, including the committed fuzz corpus seeds.
func TestDifferentialQueryBounded(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		i := i
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			diffOne(t, int64(i*7+1), int64(i*13+2))
		})
	}
}

// FuzzDifferentialQuery is the open-ended generator: go test -fuzz explores
// seed pairs beyond the committed corpus in testdata/fuzz.
func FuzzDifferentialQuery(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(8), int64(15))
	f.Add(int64(99), int64(3))
	f.Add(int64(4096), int64(4096))
	f.Add(int64(-7), int64(1<<40))
	f.Fuzz(func(t *testing.T, dataSeed, querySeed int64) {
		diffOne(t, dataSeed, querySeed)
	})
}
