package dataset

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// residentBytes reads this process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
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

// fillPresized presizes a table of rows floats, writes every row, checks
// that the writes made the mapping resident, and drops the table.
//
//go:noinline
func fillPresized(t *testing.T, rows int, before int64) {
	tb := NewTable("m", []Field{{Name: "v", Kind: KindFloat}})
	tb.Presize(rows)
	if grew := residentBytes(t) - before; grew > int64(rows) {
		t.Fatalf("presizing %d rows made %d bytes resident before any write", rows, grew)
	}
	vals := tb.Columns()[0].Floats()
	for i := range vals {
		vals[i] = float64(i)
	}
	if grew := residentBytes(t) - before; grew < 6*int64(rows) {
		t.Fatalf("writing %d floats made only %d bytes resident", rows, grew)
	}
}

// TestOffHeapArraysUnmapWhenUnreachable: a presized array is a mapping that
// takes no memory until written, and once its table is unreachable a
// collection unmaps it, giving the written pages back.
func TestOffHeapArraysUnmapWhenUnreachable(t *testing.T) {
	const rows = 8 << 20 // 64 MiB of floats
	runtime.GC()
	before := residentBytes(t)
	fillPresized(t, rows, before)
	for deadline := time.Now().Add(time.Minute); residentBytes(t)-before > 2*rows; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a minute after the table was dropped %d of its %d bytes are still resident", residentBytes(t)-before, 8*rows)
		}
		runtime.GC()
	}
}
