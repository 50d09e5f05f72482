package engine

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// The boxed executor this package shipped before results became columnar —
// one heap group with its key values per group, one dataset.Row per output
// row, sort.SliceStable over the rows — kept as the reference the typed
// vectors must reproduce value for value: same kinds, same float bits (NaN,
// ±0), same NULL cell, same order under ties, DESC and LIMIT.

type refGroup struct {
	keyVals  []dataset.Value
	aggs     []refAgg
	firstRow int
}

// refAgg is the accumulator the engine's one-word aggState replaced: every
// aggregate's sum, count, min and max, kept whatever the function.
type refAgg struct {
	sum   float64
	count int64
	min   float64
	max   float64
}

func (a *refAgg) add(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		// NaN is the identity for MIN/MAX in both directions.
		if v < a.min || (math.IsNaN(a.min) && !math.IsNaN(v)) {
			a.min = v
		}
		if v > a.max || (math.IsNaN(a.max) && !math.IsNaN(v)) {
			a.max = v
		}
	}
	a.sum += v
	a.count++
}

func refCellValue(c *dataset.Column, bin float64, i int) dataset.Value {
	if bin > 0 {
		return dataset.FV(binValue(c.Float(i), bin))
	}
	return c.Value(i)
}

// refAggValue emits the aggregate. Over an empty match set COUNT is 0 and
// every other aggregate is NULL (SQL semantics).
func refAggValue(a *refAgg, f minisql.AggFunc) dataset.Value {
	if f == minisql.AggCount {
		return dataset.IV(a.count)
	}
	if a.count == 0 {
		return dataset.NullValue
	}
	switch f {
	case minisql.AggSum:
		return dataset.FV(a.sum)
	case minisql.AggAvg:
		return dataset.FV(a.sum / float64(a.count))
	case minisql.AggMin:
		return dataset.FV(a.min)
	case minisql.AggMax:
		return dataset.FV(a.max)
	}
	return dataset.Value{}
}

// refExecute runs q over tb one row at a time: the plan's compiled predicate
// picks the rows in ascending order, the boxed sink groups them, and the boxed
// finishGroups / orderResult emit the relation.
func refExecute(t testing.TB, tb *dataset.Table, q *minisql.Query) []dataset.Row {
	t.Helper()
	p, err := newPlan(nil, tb, q)
	if err != nil {
		t.Fatalf("reference: %q: %v", q.SQL(), err)
	}
	var rows []dataset.Row
	groups := make(map[string]*refGroup)
	var groupList []*refGroup
	for i := 0; i < tb.NumRows(); i++ {
		if !p.pred(i) {
			continue
		}
		if !p.aggregates() {
			row := make(dataset.Row, len(q.Select))
			for j, sel := range q.Select {
				row[j] = refCellValue(p.selCol[j], sel.Bin, i)
			}
			rows = append(rows, row)
			continue
		}
		var key []byte
		for k, c := range p.keyCol {
			switch {
			case c.Field.Kind == dataset.KindString && q.GroupBy[k].Bin == 0:
				key = strconv.AppendInt(key, int64(c.Code(i)), 10)
			case c.Field.Kind == dataset.KindInt && q.GroupBy[k].Bin == 0:
				key = strconv.AppendInt(key, c.Int(i), 10) // an int, not its nearest float
			default:
				key = strconv.AppendUint(key, math.Float64bits(refCellValue(c, q.GroupBy[k].Bin, i).Float()), 16)
			}
			key = append(key, '|')
		}
		g, ok := groups[string(key)]
		if !ok {
			g = &refGroup{keyVals: make([]dataset.Value, len(p.keyCol)), aggs: make([]refAgg, len(p.aggCol)), firstRow: i}
			for k, c := range p.keyCol {
				g.keyVals[k] = refCellValue(c, q.GroupBy[k].Bin, i)
			}
			groups[string(key)] = g
			groupList = append(groupList, g)
		}
		for a, c := range p.aggCol {
			if c == nil {
				g.aggs[a].add(0)
			} else {
				g.aggs[a].add(c.Float(i))
			}
		}
	}
	if p.aggregates() {
		rows = refFinishGroups(p, groupList)
	}
	refOrderResult(p, rows)
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

func refFinishGroups(p *Plan, groupList []*refGroup) []dataset.Row {
	q := p.q
	if len(q.GroupBy) == 0 && len(groupList) == 0 {
		groupList = append(groupList, &refGroup{aggs: make([]refAgg, len(p.aggCol)), firstRow: -1})
	}
	var rows []dataset.Row
	for _, g := range groupList {
		row := make(dataset.Row, len(q.Select))
		ai := 0
		for j, sel := range q.Select {
			if sel.Agg != minisql.AggNone {
				row[j] = refAggValue(&g.aggs[ai], sel.Agg)
				ai++
				continue
			}
			key := -1
			for k, gk := range q.GroupBy {
				if gk.Col == sel.Col && gk.Bin == sel.Bin {
					key = k
					break
				}
			}
			switch {
			case key >= 0:
				row[j] = g.keyVals[key]
			case g.firstRow < 0:
				row[j] = dataset.NullValue
			default:
				row[j] = refCellValue(p.selCol[j], sel.Bin, g.firstRow)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func refOrderResult(p *Plan, rows []dataset.Row) {
	order := p.q.OrderBy
	if len(order) == 0 {
		return
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, j := range p.orderCol {
			c := rows[a][j].Compare(rows[b][j])
			if c == 0 {
				continue
			}
			if order[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// sameRows compares two relations cell for cell, bit for bit.
func sameRows(got, want []dataset.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g.Kind != w.Kind || g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
				return fmt.Errorf("row %d col %d = %#v, want %#v", i, j, g, w)
			}
		}
	}
	return nil
}

// checkAgainstReference runs q on every store and requires Rows() to equal
// the boxed reference. It reports how many rows the reference produced.
func checkAgainstReference(t *testing.T, tb *dataset.Table, stores []DB, q *minisql.Query) int {
	t.Helper()
	want := refExecute(t, tb, q)
	for _, db := range stores {
		res, err := execQuery(db, q)
		if err != nil {
			t.Fatalf("%s: %q: %v", db.Name(), q.SQL(), err)
		}
		if res.Len() != len(want) {
			t.Fatalf("%s: %q: Len() = %d, reference has %d rows", db.Name(), q.SQL(), res.Len(), len(want))
		}
		if err := sameRows(res.Rows(), want); err != nil {
			t.Fatalf("%s: %q: %v", db.Name(), q.SQL(), err)
		}
	}
	return len(want)
}

// orderedVariant copies q with an ORDER BY over one or two of its output
// columns, each ascending or descending, and sometimes a LIMIT: the fuzzer's
// own queries carry no ORDER BY, and ties, NaN keys and DESC are exactly
// where a permutation sort could drift from sorting the rows.
func orderedVariant(q *minisql.Query, rng *rand.Rand) *minisql.Query {
	qq := *q
	qq.OrderBy = nil
	for n := 1 + rng.Intn(2); n > 0; n-- {
		sel := q.Select[rng.Intn(len(q.Select))]
		qq.OrderBy = append(qq.OrderBy, minisql.OrderItem{Col: sel.OutName(), Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(2) == 0 {
		qq.Limit = rng.Intn(30)
	}
	return &qq
}

// TestReferenceEngineQueries replays every SELECT literal of engine_test.go
// over the table it names, on all stores, against the boxed reference.
func TestReferenceEngineQueries(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "engine_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tables, stores := map[string]*dataset.Table{}, map[string][]DB{}
	for _, tb := range []*dataset.Table{salesTable(), aggTable(), binTable(), zipTable()} {
		tables[tb.Name], stores[tb.Name] = tb, allStores(tb)
	}
	ran := 0
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		sql, err := strconv.Unquote(lit.Value)
		if err != nil || !strings.HasPrefix(sql, "SELECT ") {
			return true
		}
		// What does not parse or bind is a format string or one of the
		// error-path tests' deliberately invalid statements.
		q, err := minisql.Parse(sql)
		if err != nil || tables[q.From] == nil {
			return true
		}
		if _, err := newPlan(nil, tables[q.From], q); err != nil {
			return true
		}
		checkAgainstReference(t, tables[q.From], stores[q.From], q)
		ran++
		return true
	})
	if ran < 14 {
		t.Fatalf("replayed only %d engine_test.go queries", ran)
	}
}

// TestReferenceGoldenCorpusSQL replays the ZQL golden corpus's SQL log —
// every statement any script issues at any optimization level, which package
// zexec keeps in step with its corpus — over the corpus's own tables.
func TestReferenceGoldenCorpusSQL(t *testing.T) {
	f, err := os.Open("../zexec/testdata/golden_corpus.sql")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := map[string]*dataset.Table{"sales": workload.FixtureSales(), "airline": workload.FixtureAirline()}
	stores := map[string][]DB{}
	for name, tb := range tables {
		stores[name] = allStores(tb)
	}
	statements, rows := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		q, err := minisql.Parse(sc.Text())
		if err != nil {
			t.Fatalf("%q: %v", sc.Text(), err)
		}
		rows += checkAgainstReference(t, tables[q.From], stores[q.From], q)
		statements++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if statements < 50 || rows == 0 {
		t.Fatalf("replayed %d statements producing %d rows", statements, rows)
	}
}

// TestIntKeysPastFloatPrecision: an int GROUP BY key groups by the int, on
// every store and in the reference, coded or raw: 2^53 and 2^53+1, which
// round to one float64, are two groups, each reporting its own value.
func TestIntKeysPastFloatPrecision(t *testing.T) {
	for _, raw := range []bool{false, true} {
		tb := dataset.NewTable("t", []dataset.Field{{Name: "k", Kind: dataset.KindInt}, {Name: "v", Kind: dataset.KindFloat}})
		if raw {
			tb.Column("k").SetRawInts()
		}
		for i := 0; i < 2*SegmentSize+7; i++ {
			tb.AppendRow(dataset.IV(1<<53+int64(i%2)), dataset.FV(float64(i%5)))
		}
		q, err := minisql.Parse("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		want := refExecute(t, tb, q)
		if len(want) != 2 || want[1][0].I != 1<<53+1 {
			t.Fatalf("raw=%v: reference gives %v, want the groups 2^53 and 2^53+1", raw, want)
		}
		for _, db := range allStores(tb) {
			res, err := execQuery(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(res.Rows(), want); err != nil {
				t.Errorf("raw=%v %s: %v", raw, db.Name(), err)
			}
		}
	}
}
