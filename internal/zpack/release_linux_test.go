package zpack

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// rssBytes reads this process's resident set from /proc/self/statm.
func rssBytes(t *testing.T) int64 {
	t.Helper()
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

// touchGarbage allocates n bytes, writes every page of them and drops them.
//
//go:noinline
func touchGarbage(n int) {
	g := make([]byte, n)
	for i := 0; i < n; i += 512 {
		g[i] = 1
	}
	runtime.KeepAlive(g)
}

// TestPresizedStorageIsNotResident: storage presized for a lazy table takes
// no resident memory until a block is read into it, even right after the
// process freed heap it had touched: it is a fresh mapping, not recycled
// heap. And it reads as zeros.
func TestPresizedStorageIsNotResident(t *testing.T) {
	const garbage = 64 << 20
	touchGarbage(garbage)
	runtime.GC()
	runtime.GC()
	before := rssBytes(t)
	tb := dataset.NewTable("g", []dataset.Field{{Name: "v", Kind: dataset.KindFloat}})
	tb.Presize(garbage / 8)
	if grew := rssBytes(t) - before; grew > 8<<20 {
		t.Fatalf("presizing %d MB over freed garbage grew the resident set by %.1f MB", garbage>>20, float64(grew)/(1<<20))
	}
	for i, v := range tb.Columns()[0].Floats() {
		if v != 0 {
			t.Fatalf("row %d of presized storage reads %v", i, v)
		}
	}
}
