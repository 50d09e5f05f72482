package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/dataset"
	"repro/internal/zpack"
)

// The counted-work ledger (ROADMAP 5(d)): a fixed script of /spec and /query
// requests, served cold then warm over one seeded fixture in two setups,
// with every counted quantity fixed — /stats engine counters, skip
// provenance, pool capacity, cache hits/misses/evictions —
// and the sha256 of every response body with its two wall-clock fields
// blanked. Wall clock cannot be gated on a shared box;
// counted work on an identical request sequence can. A change that moves a
// number rewrites testdata/ledger.golden and says why:
//
//	go test ./internal/server -run TestCountedWorkLedger -update-ledger

var updateLedger = flag.Bool("update-ledger", false, "rewrite testdata/ledger.golden")

// ledgerTable is the fixture: 24 000 rows (6 segments), product in
// contiguous runs so zone maps prove segments empty on the CSV setups, city
// random so the compacted file (clustered on city) skips on a different
// column. Revenue is fractional on purpose: the pins hold float summation
// order fixed, fragment boundaries included.
func ledgerTable() *dataset.Table {
	t := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "city", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "revenue", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
	})
	const rows, products = 24000, 12
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < rows; i++ {
		p := i * products / rows
		year := rng.Intn(8)
		slope := float64(p%3 - 1)
		rev := 100 + float64(p)*7 + slope*float64(year)*10 + rng.Float64()*10
		t.AppendRow(
			dataset.SV(fmt.Sprintf("product%02d", p)),
			dataset.SV(fmt.Sprintf("city%d", rng.Intn(6))),
			dataset.IV(int64(2006+year)),
			dataset.FV(rev),
			dataset.FV(rev*0.3+rng.Float64()*4),
		)
	}
	return t
}

type ledgerReq struct {
	path string
	body any
}

// ledgerScript is the fixed request sequence: every /spec task, with and
// without filters, over both measures and two z-axes, then ZQL with
// constraints the zone maps can and cannot use.
func ledgerScript() []ledgerReq {
	drawn := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	filters := [][]FilterJSON{
		nil,
		{{Attr: "city", Value: "city2"}},
		{{Attr: "product", Value: "product03"}},
		{{Attr: "year", Op: ">=", Value: "2010"}, {Attr: "city", Op: "!=", Value: "city0"}},
	}
	var out []ledgerReq
	spec := func(s SpecJSON) {
		out = append(out, ledgerReq{"/spec", SpecRequest{Dataset: "sales", Spec: s}})
	}
	for i, f := range filters {
		z, y := "product", "revenue"
		if i%2 == 1 {
			z, y = "city", "profit"
		}
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "similar", K: 3, Drawn: drawn, Filters: f})
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "dissimilar", K: 2, Drawn: drawn, Filters: f})
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "representative", K: 3, Filters: f})
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "outliers", K: 2, Filters: f, Agg: "avg"})
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "rising", Filters: f})
		spec(SpecJSON{X: "year", Y: y, Z: z, Task: "falling", Filters: f, Agg: "sum"})
	}
	spec(SpecJSON{X: "year", Y: "revenue", Z: "product", ZValue: "product07"})
	spec(SpecJSON{X: "year", Y: "profit", Z: "city", VizType: "line", Agg: "avg"})
	spec(SpecJSON{X: "city", Y: "revenue", Z: "product", Task: "representative", K: 2})
	zql := func(text string) {
		out = append(out, ledgerReq{"/query", QueryRequest{Dataset: "sales", ZQL: text}})
	}
	zql(risingQuery)
	zql(`
NAME | X      | Y         | Z                       | CONSTRAINTS
*f1  | 'year' | 'revenue' | 'product'.'product05'   | city='city1'`)
	zql(`
NAME | X      | Y         | Z                 | CONSTRAINTS               | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | city='city3' AND year>2009 | v2 <- argmin(v1)[k=2] T(f1)
*f2  | 'year' | 'profit'  | v2                | city='city3'              |`)
	zql(`
NAME | X      | Y         | Z                 | CONSTRAINTS | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'city'.*    | product='product00' OR product='product11' | v2 <- argmax(v1)[k=2] T(f1)
*f2  | 'year' | 'revenue' | v2                |             |`)
	zql(`
NAME | X      | Y         | Z                  | CONSTRAINTS | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.*  | year=2008   |
f2   | 'year' | 'revenue' | v1                 | year=2012   | v2 <- argmax(v1)[k=3] D(f1, f2)
*f3  | 'year' | 'profit'  | v2                 | year=2008   |`)
	zql(`
NAME | X      | Y         | Z                             | PROCESS
*f1  | 'year' | 'revenue' | 'product'.'product09'         |
f2   | 'year' | 'revenue' | v1 <- 'product'.(* \ {'product09'}) | v2 <- argmin(v1)[k=2] D(f1, f2)
*f3  | 'year' | 'revenue' | v2                            |`)
	zql(`
NAME | X      | Y         | Z                 | CONSTRAINTS   | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | revenue > 150 | v2 <- R(3, v1, f1)
*f2  | 'year' | 'revenue' | v2                |               |`)
	zql(`
NAME | X      | Y        | Z              | CONSTRAINTS           | VIZ                | PROCESS
f1   | 'year' | 'profit' | v1 <- 'city'.* | product LIKE 'product0%' | bar.(y=agg('avg')) | v2 <- argany(v1)[t>0] T(f1)
*f2  | 'year' | 'profit' | v2             |                       | bar.(y=agg('avg')) |`)
	// The same scripts below the strongest batching level: one SQL statement
	// per slice, each a single categorical equality.
	out = append(out,
		ledgerReq{"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Opt: "noopt"}},
		ledgerReq{"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Opt: "intraline"}},
		ledgerReq{"/spec", SpecRequest{Dataset: "sales", Opt: "noopt", Spec: SpecJSON{X: "year", Y: "revenue", Z: "city", Task: "similar", K: 2, Drawn: drawn}}},
		ledgerReq{"/spec", SpecRequest{Dataset: "sales", Opt: "intratask", Spec: SpecJSON{X: "year", Y: "revenue", Z: "product", Task: "outliers", K: 2, Filters: filters[1]}}},
	)
	return out
}

type ledgerSetup struct {
	name string
	reg  *Registry
	// twin names the setup whose answers this one must give, hash for hash;
	// a twin's lines are checked, not written.
	twin string
}

// ledgerSetups registers the fixture two ways, CSV under the auto backend
// and a city-compacted .zpack, plus the CSV at one scan worker and at
// Config.Shards 3 as a twin of the CSV: a served answer depends on the file
// alone. Scan and process parallelism are fixed so counts don't follow the
// host's core count. The compacted file keeps answers of its own: its rows
// are in another order, so its float sums are too (ROADMAP item 8).
func ledgerSetups(t *testing.T) []ledgerSetup {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	packPath := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(packPath, ledgerTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := compact.File(packPath, compact.Options{Cols: []string{"city"}}); err != nil {
		t.Fatal(err)
	}
	var out []ledgerSetup
	add := func(name, twin string, workers int, load func(*Registry) error) {
		reg := NewRegistry()
		if err := load(reg); err != nil {
			t.Fatal(err)
		}
		pinScanWorkers(reg.Get("sales"), workers)
		out = append(out, ledgerSetup{name, reg, twin})
	}
	csv := func(cfg Config) func(*Registry) error {
		return func(r *Registry) error {
			_, err := r.LoadCSV("sales", csvPath, cfg)
			return err
		}
	}
	add("csv", "", 2, csv(Config{Backend: "auto", Seed: 7}))
	add("csv-width1-shards3", "csv", 1, csv(Config{Backend: "auto", Seed: 7, Shards: 3}))
	add("zpack-city", "", 2, func(r *Registry) error {
		_, err := r.AddZpack("sales", packPath, Config{Seed: 7})
		return err
	})
	return out
}

// pinScanWorkers bounds the scan workers of d's store to n, so counts that
// follow the pool's width (the pool capacity, the scan jobs per batch) do not
// follow the host's core count.
func pinScanWorkers(d *Dataset, n int) {
	d.store.(interface{ SetParallelism(int) }).SetParallelism(n)
}

// timingField matches the two wall-clock members of a response's stats.
var timingField = regexp.MustCompile(`"(queryTimeMs|processTimeMs)":[^,}]*`)

// ledgerStatsKeys are the /stats members the ledger pins, in output order.
var ledgerStatsKeys = []string{
	"queries", "rowsScanned", "segmentsScanned", "segmentsSkipped",
	"skipProvenance", "pool",
}

func TestCountedWorkLedger(t *testing.T) {
	// One process worker, whatever the host: the pruned searches' abandoned
	// counts follow how fast the bound tightens across workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	script := ledgerScript()
	var ledger, answers strings.Builder
	answerOf := map[string][32]byte{} // by setup, pass and request
	for _, setup := range ledgerSetups(t) {
		b, ans := &ledger, &answers
		if setup.twin != "" {
			b, ans = new(strings.Builder), new(strings.Builder) // checked, not written
		}
		ts := httptest.NewServer(New(setup.reg))
		_, raw := get(t, ts.URL+"/datasets")
		fmt.Fprintf(b, "%s datasets %s\n", setup.name, bytes.TrimSpace(raw))
		for _, pass := range []string{"cold", "warm"} {
			for i, r := range script {
				resp, raw := post(t, ts.URL+r.path, r.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s #%d %s: status %d: %s", setup.name, pass, i, r.path, resp.StatusCode, raw)
				}
				sum, answer := sha256.Sum256(timingField.ReplaceAll(raw, []byte(`"$1":0`))), answerHash(t, raw)
				answerOf[fmt.Sprint(setup.name, pass, i)] = answer
				if setup.twin != "" && answer != answerOf[fmt.Sprint(setup.twin, pass, i)] {
					t.Errorf("%s %s #%d %s: answer differs from %s's", setup.name, pass, i, r.path, setup.twin)
				}
				fmt.Fprintf(b, "%s %s %02d %s %x\n", setup.name, pass, i, r.path, sum)
				fmt.Fprintf(ans, "%s %s %02d %s %x\n", setup.name, pass, i, r.path, answer)
			}
			_, raw := get(t, ts.URL+"/stats")
			var st struct {
				Datasets map[string]map[string]json.RawMessage `json:"datasets"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			ds := st.Datasets["sales"]
			for _, k := range ledgerStatsKeys {
				v := ds[k]
				if v == nil {
					v = json.RawMessage("-")
				}
				fmt.Fprintf(b, "%s %s %s %s\n", setup.name, pass, k, v)
			}
			var cache CacheStats
			if err := json.Unmarshal(ds["cache"], &cache); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(b, "%s %s cache hits=%d misses=%d evictions=%d\n",
				setup.name, pass, cache.Hits, cache.Misses, cache.Evictions)
		}
		ts.Close()
	}
	checkLedgerFile(t, "ledger.golden", ledger.String())
	checkLedgerFile(t, "ledger_answers.golden", answers.String())
}

// checkLedgerFile compares got with testdata/name line by line, or rewrites
// the file under -update-ledger.
func checkLedgerFile(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-ledger)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d moved:\n got: %s\nwant: %s", name, i+1, g, w)
			}
		}
	}
}

// answerHash is the sha256 of a response with every "sqlLog" and "stats"
// member removed — what a request answered, not what answering it cost —
// re-encoded with sorted keys and its numbers as they were written.
func answerHash(t *testing.T, raw []byte) [32]byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "sqlLog")
			delete(v, "stats")
			for _, e := range v {
				strip(e)
			}
		case []any:
			for _, e := range v {
				strip(e)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(out)

}
