package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/zpack"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/metrics.golden")

// nonDatasetFamilies are the /metrics families that are not per-dataset
// figures: the request-path instruments, build and readiness, and the Go
// runtime's zen_go_* series.
var nonDatasetFamilies = regexp.MustCompile(`^zen_(go_.*|http_requests_total|query_duration_seconds|stage_duration_seconds|build_info|ready)$`)

// wallClockSeries are per-dataset series whose value is a wall time.
var wallClockSeries = regexp.MustCompile(`^(zen_compaction_last_duration_seconds\{[^}]*\}) .*$`)

// metricsGoldenServer serves the ledger fixture twice, as a CSV ("sales")
// and as an uncompacted .zpack ("packed"), at one process worker, and runs a
// fixed sequence over both: the ledger script cold and warm, a refused
// request, then an append and a compaction on the .zpack, each followed by a
// query, and a last query of the CSV.
func metricsGoldenServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	packPath := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(packPath, ledgerTable()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.LoadCSV("sales", csvPath, Config{Backend: "auto", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddZpack("packed", packPath, Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)

	send := func(path string, body any, want int) {
		t.Helper()
		if resp, raw := post(t, ts.URL+path, body); resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", path, resp.StatusCode, want, raw)
		}
	}
	query := func(name string) {
		send("/query", QueryRequest{Dataset: name, ZQL: yearRevenue}, http.StatusOK)
	}
	for _, name := range []string{"sales", "packed"} {
		for pass := 0; pass < 2; pass++ {
			for _, r := range ledgerScript() {
				switch b := r.body.(type) {
				case SpecRequest:
					b.Dataset = name
					send(r.path, b, http.StatusOK)
				case QueryRequest:
					b.Dataset = name
					send(r.path, b, http.StatusOK)
				}
			}
		}
		send("/query", QueryRequest{Dataset: name, ZQL: "NAME | X\n*f1 | 'nope'"}, http.StatusUnprocessableEntity)
	}
	send("/datasets/packed/append", AppendRequest{Rows: [][]any{
		{"product05", "city3", float64(2010), 123.5, 40.25},
		{"product11", "city0", float64(2013), 250.75, 80.5},
	}}, http.StatusOK)
	query("packed")
	send("/datasets/packed/compact", CompactRequest{Cols: []string{"city"}}, http.StatusOK)
	query("packed")
	query("sales")
	return ts, reg
}

// datasetFamilies returns the per-dataset families of a /metrics scrape,
// each its HELP, TYPE and sample lines, sorted by family name, with the
// wall-clock series' values masked.
func datasetFamilies(scrape string) []string {
	var fams []string
	var cur *strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			cur = nil
			if name, _, _ = strings.Cut(name, " "); !nonDatasetFamilies.MatchString(name) {
				cur = new(strings.Builder)
				fams = append(fams, "")
			}
		}
		if cur == nil {
			continue
		}
		cur.WriteString(wallClockSeries.ReplaceAllString(line, "$1 <wall clock>"))
		cur.WriteByte('\n')
		fams[len(fams)-1] = cur.String()
	}
	sort.Strings(fams)
	return fams
}

// TestMetricsGolden pins the per-dataset part of /metrics, every HELP and
// TYPE line, label set and value, after a fixed request sequence over a CSV
// and a .zpack dataset (testdata/metrics.golden). A series that moves on
// purpose rewrites the file:
//
//	go test ./internal/server -run TestMetricsGolden -update-metrics
func TestMetricsGolden(t *testing.T) {
	// One process worker, whatever the host: the pruned searches' abandoned
	// counts follow how fast the bound tightens across workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ts, _ := metricsGoldenServer(t)
	_, raw := get(t, ts.URL+"/metrics")
	scrape := string(raw)
	got := strings.Join(datasetFamilies(scrape), "")

	path := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("metrics.golden line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}

	// Every tagged field on /stats is its sample on /metrics.
	_, raw = get(t, ts.URL+"/stats")
	var st struct {
		Datasets map[string]DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, line := range strings.Split(scrape, "\n") {
		lines[line] = true
	}
	// A series in seconds serves a field in milliseconds.
	sample := func(name string, v int64, labels ...string) string {
		x := float64(v)
		if strings.HasSuffix(name, "_seconds") {
			x /= 1e3
		}
		return fmt.Sprintf("%s{%s} %s", name, strings.Join(labels, ","), strconv.FormatFloat(x, 'g', -1, 64))
	}
	checked := 0
	for ds, stats := range st.Datasets {
		for _, f := range datasetSeries(reflect.TypeFor[DatasetStats](), nil) {
			v, err := reflect.ValueOf(stats).FieldByIndexErr(f.index)
			if err != nil {
				continue
			}
			label := fmt.Sprintf("dataset=%q", ds)
			var want []string
			if v.Kind() == reflect.Slice {
				for i := range v.Len() {
					e := v.Index(i).Interface().(SkipProvEntry)
					want = append(want, sample(f.name, e.Count,
						label, fmt.Sprintf("column=%q", e.Column), fmt.Sprintf("via=%q", e.Via)))
				}
			} else {
				want = append(want, sample(f.name, v.Int(), label))
			}
			for _, w := range want {
				checked++
				if !lines[w] {
					t.Errorf("/stats has %q, /metrics does not", w)
				}
			}
		}
	}
	if samples := strings.Count(got, "\n") - 2*strings.Count(got, "# HELP "); checked != samples {
		t.Errorf("%d /stats figures checked against %d per-dataset samples on /metrics", checked, samples)
	}
}

// catalogueNames returns the backquoted names, matching name, in the first
// cell of each row of the table under heading in docs/OPERATIONS.md.
func catalogueNames(t *testing.T, heading string, name *regexp.Regexp) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("docs/OPERATIONS.md has no %q", heading)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(cells[1], -1) {
			if n := name.FindString(m[1]); n != "" {
				out[n] = true
			}
		}
	}
	return out
}

// jsonNames returns the /stats member names of t, nested structs' members
// as "outer.inner".
func jsonNames(t reflect.Type, prefix string, out map[string]bool) {
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			jsonNames(ft, prefix+name+".", out)
		} else {
			out[prefix+name] = true
		}
	}
}

// TestMetricsCatalogue holds the docs to the code both ways: the /metrics
// table in docs/OPERATIONS.md lists exactly the registered families, and
// the /stats glossary exactly the members of DatasetStats.
func TestMetricsCatalogue(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	_, raw := get(t, ts.URL+"/metrics")
	families := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families[name] = true
		}
	}
	fields := map[string]bool{}
	jsonNames(reflect.TypeFor[DatasetStats](), "", fields)
	for _, c := range []struct {
		what       string
		code, docs map[string]bool
	}{
		{"/metrics family", families, catalogueNames(t, "### The /metrics catalog", regexp.MustCompile(`^zen_[a-z0-9_]+`))},
		{"/stats member", fields, catalogueNames(t, "## /stats counter glossary", regexp.MustCompile(`^[a-zA-Z.]+$`))},
	} {
		for n := range c.code {
			if !c.docs[n] {
				t.Errorf("%s %s is not in docs/OPERATIONS.md", c.what, n)
			}
		}
		for n := range c.docs {
			if !c.code[n] {
				t.Errorf("docs/OPERATIONS.md names %s %s, which does not exist", c.what, n)
			}
		}
	}
}
