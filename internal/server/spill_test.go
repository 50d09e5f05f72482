package server

import (
	"bytes"
	"fmt"
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
		cfg := Config{Backend: "auto", Shards: shards, Seed: 7, ProcessParallelism: 1}
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

// TestLoadCSVServesFromMemoryWithoutASpill: a CSV whose directory takes no
// spill is served from memory, with the answers of the spilled dataset. The
// CSV is read through /proc/self/fd/N, a directory no process can create a
// file in, not even root.
func TestLoadCSVServesFromMemoryWithoutASpill(t *testing.T) {
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
	cfg := Config{Seed: 7, ProcessParallelism: 1}
	inMem, spilled := NewRegistry(), NewRegistry()
	d, err := inMem.LoadCSV("sales", fmt.Sprintf("/proc/self/fd/%d", f.Fd()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spilled() || d.ResidentBytes() != d.Table().SizeBytes() {
		t.Fatalf("no spill directory: spilled %v, resident %d of %d", d.Spilled(), d.ResidentBytes(), d.Table().SizeBytes())
	}
	if d, err = spilled.LoadCSV("sales", csvPath, cfg); err != nil || !d.Spilled() {
		t.Fatalf("spilled %v, %v", d, err)
	}
	mts, sts := httptest.NewServer(New(inMem)), httptest.NewServer(New(spilled))
	defer mts.Close()
	defer sts.Close()
	for i, r := range ledgerScript() {
		mresp, got := post(t, mts.URL+r.path, r.body)
		sresp, want := post(t, sts.URL+r.path, r.body)
		if mresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
			t.Fatalf("#%d %s: status %d and %d", i, r.path, mresp.StatusCode, sresp.StatusCode)
		}
		got = timingField.ReplaceAll(got, []byte(`"$1":0`))
		want = timingField.ReplaceAll(want, []byte(`"$1":0`))
		if !bytes.Equal(got, want) {
			t.Fatalf("#%d %s: in memory answered\n%.300s\nspilled\n%.300s", i, r.path, got, want)
		}
	}
}
