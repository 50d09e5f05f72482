package zpack

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// heapLive collects and returns the bytes the Go heap's live objects hold.
func heapLive() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// offHeapFile builds a 200 000-row sales zpack of the given product count.
func offHeapFile(t *testing.T, products int) (string, *dataset.Table) {
	t.Helper()
	src := workload.Sales(workload.SalesConfig{Rows: 200000, Products: products, Years: 20, Cities: 50, Seed: 1})
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := Build(path, src); err != nil {
		t.Fatal(err)
	}
	return path, src
}

// checkHeapGrowth fails t when the live Go heap grew by a tenth of the
// table's bytes or more since before.
func checkHeapGrowth(t *testing.T, what string, before int64, tb *dataset.Table) {
	t.Helper()
	grown, size := heapLive()-before, tb.SizeBytes()
	t.Logf("%s: table %d bytes, Go heap grew %d", what, size, grown)
	if grown >= size/10 {
		t.Errorf("%s grew the Go heap by %d bytes, want < a tenth of the table's %d", what, grown, size)
	}
}

// TestOffHeapOpenAndLoadAll: a table opened from a file and loaded whole
// holds its arrays in mappings, not on the Go heap.
func TestOffHeapOpenAndLoadAll(t *testing.T) {
	path, _ := offHeapFile(t, 500)
	before := heapLive()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	checkHeapGrowth(t, "Open and LoadAll", before, r.Table())
}

// TestOffHeapReopenAcrossACodeWidth: an append that takes a dictionary past
// 256 entries makes Reopen start cold, at the wider code; the successor's
// fresh arrays are mappings too.
func TestOffHeapReopenAcrossACodeWidth(t *testing.T) {
	path, src := offHeapFile(t, 256)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if w := r.Table().Column("product").Codes().Width(); w != 1 {
		t.Fatalf("product codes are %d bytes wide before the append, want 1", w)
	}
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	row := src.Row(0)
	row[0] = dataset.SV("product-new")
	if err := w.Append([]dataset.Row{row}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := heapLive()
	nr, err := r.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	if err := nr.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if w := nr.Table().Column("product").Codes().Width(); w != 2 {
		t.Fatalf("product codes are %d bytes wide after the append, want 2", w)
	}
	if got, want := nr.Table().Column("product").Value(src.NumRows()).String(), "product-new"; got != want {
		t.Errorf("the appended row's product reads %q, want %q", got, want)
	}
	checkHeapGrowth(t, "a Reopen across a code width", before, nr.Table())
	runtime.KeepAlive(src)
}
