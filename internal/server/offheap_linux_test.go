package server

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/internal/zpack"
)

// residentBytes collects, hands the freed heap back to the OS and reads this
// process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	runtime.GC()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		t.Fatalf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// loadAll registers path as sales and loads every block of it, returning the
// registry and the bytes loaded.
//
//go:noinline
func loadAll(t *testing.T, path string) (*Registry, int64) {
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.packR.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return reg, d.ResidentBytes()
}

// TestOffHeapCompactionUnmapsTheOldGeneration: a compaction keeps only the
// superseded generation's descriptor, so once nothing reads that generation
// a collection unmaps every block it had loaded, and the resident set falls
// by them.
func TestOffHeapCompactionUnmapsTheOldGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, workload.Sales(guardSales())); err != nil {
		t.Fatal(err)
	}
	reg, loaded := loadAll(t, path)
	before := residentBytes(t)
	if _, _, err := reg.Compact("sales", []string{"product"}); err != nil {
		t.Fatal(err)
	}
	if reg.Get("sales").ResidentBytes() != 0 {
		t.Fatal("the new generation has blocks in place before any query")
	}
	deadline := time.Now().Add(10 * time.Second)
	for residentBytes(t) > before-loaded/2 {
		if time.Now().After(deadline) {
			t.Fatalf("10 s after the compaction the resident set is %d bytes, want at most %d: the old generation's %d loaded bytes are still mapped",
				residentBytes(t), before-loaded/2, loaded)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(reg)
}
