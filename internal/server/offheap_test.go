package server

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/workload"
	"repro/internal/zpack"
)

// heapLive collects and returns the bytes the Go heap's live objects hold.
func heapLive() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestOffHeapAddTable: registering a table built on the heap moves its
// arrays off it, so building and registering it leaves the live Go heap
// less than a tenth of the table's bytes larger: the dictionaries, the zone
// maps, the serving stack.
func TestOffHeapAddTable(t *testing.T) {
	before := heapLive()
	reg := NewRegistry()
	d, err := reg.AddTable(workload.Sales(guardSales()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	grown, size := heapLive()-before, d.Table().SizeBytes()
	t.Logf("table %d bytes, Go heap grew %d", size, grown)
	if grown >= size/10 {
		t.Errorf("registering a %d-byte table grew the Go heap by %d, want < a tenth of it", size, grown)
	}
	runtime.KeepAlive(reg)
}

// TestOffHeapReleaseMovesNoGoHeap replaces the pacer's pinned-bytes rule: a
// zpack dataset's blocks load into mappings, so neither loading them nor
// releasing them moves the live Go heap by a tenth of the table; a release
// gives back resident memory only, and the next query reads the same answer.
func TestOffHeapReleaseMovesNoGoHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, workload.Sales(guardSales())); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{CacheEntries: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	first := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	loaded := heapLive()
	size := d.Table().SizeBytes()
	if d.ResidentBytes() == 0 {
		t.Fatal("nothing resident after a query")
	}
	if n, ok := d.packR.Release(); !ok || n == 0 {
		t.Fatalf("Release() = %d, %v", n, ok)
	}
	if d.ResidentBytes() != 0 || d.Table().SizeBytes() != size {
		t.Fatalf("after the release %d bytes resident of a %d-byte table, want 0 of %d", d.ResidentBytes(), d.Table().SizeBytes(), size)
	}
	if moved := heapLive() - loaded; moved <= -size/10 || moved >= size/10 {
		t.Errorf("the release moved the Go heap by %d bytes, want less than a tenth of the table's %d", moved, size)
	}
	again := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	if !bytes.Equal(again.Result, first.Result) {
		t.Errorf("after the release the query answers\n%.200s\nwant\n%.200s", again.Result, first.Result)
	}
}
