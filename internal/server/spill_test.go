package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
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

// TestLoadCSVSpills: under the column back-end a CSV is served from its
// spill — every ledger request answered with the bytes the in-memory table
// answers, unsharded and over three shards, nothing left in the CSV's
// directory while it serves or after, and only the columns queries read
// resident.
func TestLoadCSVSpills(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	mem, err := dataset.ReadCSVFile("sales", csvPath)
	if err != nil {
		t.Fatal(err)
	}
	script := ledgerScript()
	for _, shards := range []int{1, 3} {
		cfg := Config{Backend: "auto", Shards: shards, Seed: 7, Parallelism: 2, ProcessParallelism: 1}
		spilled, inMem := NewRegistry(), NewRegistry()
		d, err := spilled.LoadCSV("sales", csvPath, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Spilled() || d.Appendable() || d.Backend() != "auto" {
			t.Fatalf("shards %d: spilled %v, appendable %v, backend %q", shards, d.Spilled(), d.Appendable(), d.Backend())
		}
		if _, err := inMem.AddTable(mem, cfg); err != nil {
			t.Fatal(err)
		}
		assertOnlyFile(t, dir, "sales.csv")
		sts, mts := httptest.NewServer(New(spilled)), httptest.NewServer(New(inMem))
		for i, r := range script {
			sresp, got := post(t, sts.URL+r.path, r.body)
			mresp, want := post(t, mts.URL+r.path, r.body)
			if sresp.StatusCode != http.StatusOK || mresp.StatusCode != http.StatusOK {
				t.Fatalf("shards %d #%d %s: status %d and %d", shards, i, r.path, sresp.StatusCode, mresp.StatusCode)
			}
			got = timingField.ReplaceAll(got, []byte(`"$1":0`))
			want = timingField.ReplaceAll(want, []byte(`"$1":0`))
			if !bytes.Equal(got, want) {
				t.Fatalf("shards %d #%d %s: spilled answered\n%.300s\nin memory\n%.300s", shards, i, r.path, got, want)
			}
		}
		_, sds := get(t, sts.URL+"/datasets")
		_, mds := get(t, mts.URL+"/datasets")
		if !bytes.Equal(sds, mds) {
			t.Fatalf("shards %d: /datasets\n%s\nwant\n%s", shards, sds, mds)
		}
		sts.Close()
		mts.Close()
	}
	runtime.GC() // the registries above are garbage: their spills' descriptors close
	assertOnlyFile(t, dir, "sales.csv")

	reg := NewRegistry()
	d, err := reg.LoadCSV("sales", csvPath, Config{Backend: "column", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.ResidentBytes() != 0 {
		t.Fatalf("resident %d bytes before any query", d.ResidentBytes())
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: "NAME | X | Y\n*f1 | 'year' | 'revenue'"})
	// year: eight values, a byte a row; revenue: eight bytes a row.
	if got, want := d.ResidentBytes(), int64(d.Table().NumRows()*(1+8)); got != want {
		t.Fatalf("resident %d bytes after a year/revenue query, want %d (table %d)", got, want, d.Table().SizeBytes())
	}
}

// TestLoadCSVServesFromMemoryWithoutASpill: a CSV in a directory no spill can
// be written to is served from memory, as is a CSV under a back-end other
// than the column one.
func TestLoadCSVServesFromMemoryWithoutASpill(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, testTable())
	d, err := NewRegistry().LoadCSV("sales", csvPath, Config{Backend: "row"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Spilled() || d.ResidentBytes() != d.Table().SizeBytes() {
		t.Fatalf("row back-end: spilled %v, resident %d of %d", d.Spilled(), d.ResidentBytes(), d.Table().SizeBytes())
	}
	if os.Geteuid() == 0 {
		t.Skip("root writes to read-only directories")
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	d, err = NewRegistry().LoadCSV("sales", csvPath, Config{Backend: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Spilled() || d.ResidentBytes() != d.Table().SizeBytes() || d.Backend() != "auto" {
		t.Fatalf("read-only directory: spilled %v, resident %d of %d, backend %q", d.Spilled(), d.ResidentBytes(), d.Table().SizeBytes(), d.Backend())
	}
}
