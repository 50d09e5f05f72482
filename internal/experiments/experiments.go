// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapters 7 and 8). Each Fig* function returns printable rows in
// the same shape the paper reports; cmd/zbench prints them and the root
// bench_test.go wraps them in testing.B benchmarks.
//
// Scale: the paper ran 10M-row synthetic data and 15M-row airline data on a
// 20-core Xeon. ScaleSmall shrinks row counts for CI; ScaleFull approaches
// the paper's sizes. Shapes (who wins, crossovers), not absolute times, are
// the reproduction target — see EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zql"
)

// Scale selects dataset sizes.
type Scale int

// Scales.
const (
	ScaleSmall Scale = iota // seconds-fast, for tests and benches
	ScaleFull               // minutes, approaching the paper's sizes
)

func (s Scale) salesRows() int {
	if s == ScaleFull {
		return 5_000_000
	}
	return 100_000
}

func (s Scale) airlineRows() int {
	if s == ScaleFull {
		return 5_000_000
	}
	return 100_000
}

func (s Scale) censusRows() int {
	if s == ScaleFull {
		return 300_000
	}
	return 50_000
}

func (s Scale) sweepRows() int {
	if s == ScaleFull {
		return 2_000_000
	}
	return 200_000
}

// OptRow is one bar of Figures 7.1 / 7.2: a query executed at one
// optimization level.
type OptRow struct {
	Query       string
	Level       zexec.OptLevel
	Time        time.Duration
	Requests    int
	Queries     int
	RowsScanned int64 // table rows the back-end visited for the query
}

// SalesDataset builds the synthetic sales table once per scale.
func SalesDataset(s Scale) *dataset.Table {
	cfg := workload.DefaultSales()
	cfg.Rows = s.salesRows()
	return workload.Sales(cfg)
}

// AirlineDataset builds the airline-like table.
func AirlineDataset(s Scale) *dataset.Table {
	cfg := workload.DefaultAirline()
	cfg.Rows = s.airlineRows()
	return workload.Airline(cfg)
}

// CensusDataset builds the census-like table.
func CensusDataset(s Scale) *dataset.Table {
	return workload.Census(workload.CensusConfig{Rows: s.censusRows(), Seed: 3})
}

// Table51Query builds the ZQL of the paper's Table 5.1 with P = the first n
// products of the dataset.
func Table51Query(t *dataset.Table, n int) string {
	p := productList(t, n)
	return fmt.Sprintf(`
NAME | X      | Y         | Z                           | CONSTRAINTS  | VIZ                | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.%s          | country='US' | bar.(y=agg('sum')) | v2 <- argany(v1)[t>0] T(f1)
f2   | 'year' | 'revenue' | v1                          | country='UK' | bar.(y=agg('sum')) | v3 <- argany(v1)[t<0] T(f2)
*f3  | 'year' | 'profit'  | v4 <- (v2.range | v3.range) |              | bar.(y=agg('sum')) |`, p)
}

// Table52Query builds the ZQL of Table 5.2 with P = the first n products.
func Table52Query(t *dataset.Table, n int) string {
	p := productList(t, n)
	years := t.Column("year").DistinctSorted()
	y0, y1 := years[0].String(), years[len(years)-1].String()
	return fmt.Sprintf(`
NAME | X          | Y         | Z                  | CONSTRAINTS | VIZ                | PROCESS
f1   | 'category' | 'revenue' | v1 <- 'product'.%s | year=%s     | bar.(y=agg('sum')) |
f2   | 'category' | 'revenue' | v1                 | year=%s     | bar.(y=agg('sum')) | v2 <- argmax(v1)[k=10] D(f1, f2)
*f3  | 'category' | 'profit'  | v2                 | year=%s     | bar.(y=agg('sum')) |
*f4  | 'category' | 'profit'  | v2                 | year=%s     | bar.(y=agg('sum')) |`, p, y0, y1, y0, y1)
}

// Table71Query builds the ZQL of Table 7.1 with OA = the first n airports.
func Table71Query(t *dataset.Table, n int) string {
	a := airportList(t, n)
	return fmt.Sprintf(`
NAME | X      | Y                                 | Z                  | PROCESS
f1   | 'year' | 'DepDelay'                        | v1 <- 'airport'.%s | v2 <- argany(v1)[t>0] T(f1)
f2   | 'year' | 'WeatherDelay'                    | v1                 | v3 <- argany(v1)[t>0] T(f2)
*f3  | 'year' | y3 <- {'DepDelay','WeatherDelay'} | v4 <- (v2.range | v3.range) |`, a)
}

// Table72Query builds the ZQL of Table 7.2 with DA = the first n airports.
func Table72Query(t *dataset.Table, n int) string {
	a := airportList(t, n)
	return fmt.Sprintf(`
NAME | X       | Y                                 | Z                  | CONSTRAINTS | PROCESS
f1   | 'Day'   | 'ArrDelay'                        | v1 <- 'airport'.%s | Month='06'  |
f2   | 'Day'   | 'ArrDelay'                        | v1                 | Month='12'  | v2 <- argmax(v1)[k=10] D(f1, f2)
*f3  | 'Month' | y1 <- {'ArrDelay','WeatherDelay'} | v2                 |             |`, a)
}

func productList(t *dataset.Table, n int) string {
	return quotedSet(t.Column("product").DistinctSorted(), n)
}

func airportList(t *dataset.Table, n int) string {
	return quotedSet(t.Column("airport").DistinctSorted(), n)
}

func quotedSet(vals []dataset.Value, n int) string {
	if n > len(vals) {
		n = len(vals)
	}
	out := "{"
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ","
		}
		out += "'" + vals[i].String() + "'"
	}
	return out + "}"
}

// runAtLevels executes a ZQL query at each optimization level on a fresh
// row store and reports one OptRow per level.
func runAtLevels(name, src string, t *dataset.Table, table string, levels []zexec.OptLevel) ([]OptRow, error) {
	q, err := zql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", name, err)
	}
	db := engine.NewRowStore(t)
	var out []OptRow
	for _, level := range levels {
		start := time.Now()
		res, err := zexec.Run(q, db, zexec.Options{Table: table, Opt: level, Seed: 7})
		if err != nil {
			return nil, fmt.Errorf("experiments: running %s at %v: %w", name, level, err)
		}
		out = append(out, OptRow{
			Query:       name,
			Level:       level,
			Time:        time.Since(start),
			Requests:    res.Stats.Requests,
			Queries:     res.Stats.SQLQueries,
			RowsScanned: res.Stats.RowsScanned,
		})
	}
	return out, nil
}

var allLevels = []zexec.OptLevel{zexec.NoOpt, zexec.IntraLine, zexec.IntraTask, zexec.InterTask}

// Fig71 reproduces Figure 7.1: Tables 5.1 and 5.2 on the synthetic sales
// dataset across optimization levels (runtime + number of SQL requests).
func Fig71(s Scale) ([]OptRow, error) {
	t := SalesDataset(s)
	rows, err := runAtLevels("Table 5.1", Table51Query(t, 20), t, "sales", allLevels)
	if err != nil {
		return nil, err
	}
	rows2, err := runAtLevels("Table 5.2", Table52Query(t, 20), t, "sales", allLevels)
	if err != nil {
		return nil, err
	}
	return append(rows, rows2...), nil
}

// Fig72 reproduces Figure 7.2: Tables 7.1 and 7.2 on the airline dataset.
func Fig72(s Scale) ([]OptRow, error) {
	t := AirlineDataset(s)
	rows, err := runAtLevels("Table 7.1", Table71Query(t, 10), t, "airline", allLevels)
	if err != nil {
		return nil, err
	}
	rows2, err := runAtLevels("Table 7.2", Table72Query(t, 10), t, "airline", allLevels)
	if err != nil {
		return nil, err
	}
	return append(rows, rows2...), nil
}
