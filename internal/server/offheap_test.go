package server

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// heapLive collects and returns the bytes the Go heap's live objects hold.
func heapLive() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestOffHeapAddTable: registering a table built on the heap spills it and
// serves the spill, whose rows stay in the file, so building and registering
// it leaves the live Go heap less than a tenth of the table's bytes larger:
// the dictionaries, the zone maps, the serving stack.
func TestOffHeapAddTable(t *testing.T) {
	before := heapLive()
	reg := NewRegistry()
	d, err := reg.AddTable(workload.Sales(guardSales()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	grown, size := heapLive()-before, d.TableBytes()
	t.Logf("table %d bytes, Go heap grew %d", size, grown)
	if grown >= size/10 {
		t.Errorf("registering a %d-byte table grew the Go heap by %d, want < a tenth of it", size, grown)
	}
	runtime.KeepAlive(reg)
}
