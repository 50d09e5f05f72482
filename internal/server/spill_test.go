package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// writeCSV writes tb as the CSV file path.
func writeCSV(t *testing.T, path string, tb *dataset.Table) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(tb, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertOnlyFile fails unless dir holds exactly the one file name.
func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		t.Fatalf("%s holds %v, want only %s", dir, ents, name)
	}
}

// TestLoadCSVSpills: a CSV is served from its spill beside it — every
// ledger request answered with the bytes the same table registered through
// AddTable answers, in one fragment and in three, nothing left in the CSV's
// directory while it serves or after, and no block read before a query nor
// kept after one.
func TestLoadCSVSpills(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one process worker
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	for _, size := range []int{engine.FragmentSegments, 2} { // 6 segments: 1 and 3 fragments
		prev := engine.SetFragmentSegments(size)
		cfg := Config{Backend: "auto", Seed: 7}
		spilled, added := NewRegistry(), NewRegistry()
		d, err := spilled.LoadCSV("sales", csvPath, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Spilled() || d.Appendable() || d.Backend() != "auto" {
			t.Fatalf("fragments of %d: spilled %v, appendable %v, backend %q", size, d.Spilled(), d.Appendable(), d.Backend())
		}
		mem, err := dataset.ReadCSVFile("sales", csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := added.AddTable(mem, cfg); err != nil {
			t.Fatal(err)
		}
		assertOnlyFile(t, dir, "sales.csv")
		compareScripts(t, spilled, added)
		engine.SetFragmentSegments(prev)
	}
	runtime.GC() // the registries above are garbage: their spills' descriptors close
	assertOnlyFile(t, dir, "sales.csv")

	reg := NewRegistry()
	d, err := reg.LoadCSV("sales", csvPath, Config{Backend: "column", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.packR.SegmentLoads(); n != 0 {
		t.Fatalf("%d segments read before any query", n)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: "NAME | X | Y\n*f1 | 'year' | 'revenue'"})
	if got, want := d.packR.SegmentLoads(), int64(d.Segments()); got != want {
		t.Fatalf("%d segment reads for a year/revenue query, want %d", got, want)
	}
	if n := d.Table().Column("year").Len(); n != 0 {
		t.Fatalf("the served table holds %d year cells after a query, want none", n)
	}
}

// TestLoadCSVSpillsToTheTempDir: a CSV whose directory takes no spill is
// served from a spill in os.TempDir(), with the answers of the one spilled
// beside it; where TMPDIR takes none either, LoadCSV fails naming both
// directories. The CSV is read through /proc/self/fd/N, a directory no
// process can create a file in, not even root.
func TestLoadCSVSpillsToTheTempDir(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one process worker
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/fd")
	}
	csvPath := filepath.Join(t.TempDir(), "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fdPath := fmt.Sprintf("/proc/self/fd/%d", f.Fd())
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := Config{Seed: 7}
	inTmp, beside := NewRegistry(), NewRegistry()
	d, err := inTmp.LoadCSV("sales", fdPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Spilled() || d.packR.SegmentLoads() != 0 {
		t.Fatalf("spilled to TMPDIR: spilled %v, %d segments read", d.Spilled(), d.packR.SegmentLoads())
	}
	assertNoFile(t, tmp)
	if d, err = beside.LoadCSV("sales", csvPath, cfg); err != nil || !d.Spilled() {
		t.Fatalf("spilled %v, %v", d, err)
	}
	compareScripts(t, inTmp, beside)

	missing := filepath.Join(tmp, "missing")
	t.Setenv("TMPDIR", missing)
	_, err = NewRegistry().LoadCSV("sales", fdPath, cfg)
	if err == nil || !strings.Contains(err.Error(), "/proc/self/fd:") || !strings.Contains(err.Error(), missing+":") {
		t.Fatalf("no directory takes the spill: err %v, want one naming /proc/self/fd and %s", err, missing)
	}
}

// TestAddTableServesASpill: a table registered through AddTable is served
// from a spill in os.TempDir(), as a CSV is: nothing read before its first
// query, and every ledger request answered with the bytes LoadCSV of the
// same table answers.
func TestAddTableServesASpill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one process worker
	csvPath := filepath.Join(t.TempDir(), "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := Config{Seed: 7}
	added, loaded := NewRegistry(), NewRegistry()
	d, err := added.AddTable(ledgerTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Spilled() || d.Appendable() || d.packR.SegmentLoads() != 0 {
		t.Fatalf("spilled %v, appendable %v, %d segments read before any query", d.Spilled(), d.Appendable(), d.packR.SegmentLoads())
	}
	assertNoFile(t, tmp)
	if _, err := loaded.LoadCSV("sales", csvPath, cfg); err != nil {
		t.Fatal(err)
	}
	compareScripts(t, added, loaded)

}

// assertNoFile fails unless dir is empty.
func assertNoFile(t *testing.T, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%s holds %v (%v), want nothing", dir, ents, err)
	}
}

// compareScripts posts the ledger script to servers over a and b, then gets
// /datasets, and fails on the first request they answer with different
// bytes, timings blanked.
func compareScripts(t *testing.T, a, b *Registry) {
	t.Helper()
	ats, bts := httptest.NewServer(New(a)), httptest.NewServer(New(b))
	defer ats.Close()
	defer bts.Close()
	for i, r := range ledgerScript() {
		aresp, got := post(t, ats.URL+r.path, r.body)
		bresp, want := post(t, bts.URL+r.path, r.body)
		if aresp.StatusCode != http.StatusOK || bresp.StatusCode != http.StatusOK {
			t.Fatalf("#%d %s: status %d and %d", i, r.path, aresp.StatusCode, bresp.StatusCode)
		}
		got = timingField.ReplaceAll(got, []byte(`"$1":0`))
		want = timingField.ReplaceAll(want, []byte(`"$1":0`))
		if !bytes.Equal(got, want) {
			t.Fatalf("#%d %s: answered\n%.300s\nwant\n%.300s", i, r.path, got, want)
		}
	}
	_, got := get(t, ats.URL+"/datasets")
	_, want := get(t, bts.URL+"/datasets")
	if !bytes.Equal(got, want) {
		t.Fatalf("/datasets answered\n%s\nwant\n%s", got, want)
	}
}
