package server

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// span is an address range [lo, hi).
type span struct{ lo, hi uintptr }

// columnSpans returns the address ranges of tb's column arrays. A span
// keeps nothing alive: the arrays stay collectable.
func columnSpans(tb *dataset.Table) []span {
	var out []span
	add := func(p unsafe.Pointer, bytes int) {
		if bytes > 0 {
			out = append(out, span{uintptr(p), uintptr(p) + uintptr(bytes)})
		}
	}
	for _, c := range tb.Columns() {
		codes := c.Codes()
		add(unsafe.Pointer(unsafe.SliceData(codes.U8)), cap(codes.U8))
		add(unsafe.Pointer(unsafe.SliceData(codes.U16)), 2*cap(codes.U16))
		add(unsafe.Pointer(unsafe.SliceData(codes.U32)), 4*cap(codes.U32))
		add(unsafe.Pointer(unsafe.SliceData(c.Ints())), 8*cap(c.Ints()))
		add(unsafe.Pointer(unsafe.SliceData(c.Floats())), 8*cap(c.Floats()))
	}
	return out
}

// residentIn collects and returns the bytes of the pages in spans that are
// in memory, from the present bit of each page's /proc/self/pagemap entry.
// (/proc/self/smaps reports residency per mapping, and the kernel merges
// adjacent anonymous mappings, so it cannot tell one array's pages from its
// neighbours'.)
func residentIn(t *testing.T, spans []span) int64 {
	t.Helper()
	runtime.GC()
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := uintptr(os.Getpagesize())
	var n int64
	for _, s := range spans {
		first, last := s.lo/page, (s.hi-1)/page
		entries := make([]byte, 8*(last-first+1))
		if _, err := f.ReadAt(entries, int64(8*first)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(entries); i += 8 {
			if binary.LittleEndian.Uint64(entries[i:])>>63 == 1 {
				n += int64(page)
			}
		}
	}
	return n
}

// loadAll registers path as sales and loads every block of it, returning the
// registry, the bytes loaded and the address ranges they were loaded into.
//
//go:noinline
func loadAll(t *testing.T, path string) (*Registry, int64, []span) {
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.packR.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return reg, d.ResidentBytes(), columnSpans(d.Table())
}

// TestOffHeapCompactionUnmapsTheOldGeneration: a compaction keeps only the
// superseded generation's descriptor, so once nothing reads that generation
// a collection unmaps every block it had loaded: the pages of its column
// arrays leave memory.
func TestOffHeapCompactionUnmapsTheOldGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, workload.Sales(guardSales())); err != nil {
		t.Fatal(err)
	}
	reg, loaded, old := loadAll(t, path)
	if got := residentIn(t, old); got < loaded {
		t.Fatalf("%d bytes of the loaded generation's arrays in memory, want its %d loaded bytes at least", got, loaded)
	}
	if _, _, err := reg.Compact("sales", []string{"product"}); err != nil {
		t.Fatal(err)
	}
	if reg.Get("sales").ResidentBytes() != 0 {
		t.Fatal("the new generation has blocks in place before any query")
	}
	deadline := time.Now().Add(10 * time.Second)
	for residentIn(t, old) > loaded/2 {
		if time.Now().After(deadline) {
			t.Fatalf("10 s after the compaction %d bytes of the old generation's arrays are in memory, want at most %d of its %d loaded bytes",
				residentIn(t, old), loaded/2, loaded)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(reg)
}
