package dataset

import (
	"fmt"
	"strings"
	"testing"
)

// TestOffHeapColumnsStayOffHeap: a mapped column that widens past 256 codes,
// or an integer column that goes raw, moves to a new mapping with every row
// intact, never to the Go heap.
func TestOffHeapColumnsStayOffHeap(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("s,i\n")
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&csv, "s%d,%d\n", i, i)
	}
	tb, err := ReadCSV("t", strings.NewReader(csv.String())) // stitched into mappings
	if err != nil {
		t.Fatal(err)
	}
	s, i := tb.Column("s"), tb.Column("i")
	if s.mem == nil || i.mem == nil {
		t.Skip("this platform keeps served arrays on the Go heap")
	}
	before := s.mem
	tb.AppendRow(SV("s256"), IV(256))
	if s.Codes().Width() != 2 || s.mem == nil || s.mem == before {
		t.Fatalf("after the 257th string: width %d, mapping %p (was %p), want 2 in a new mapping", s.Codes().Width(), s.mem, before)
	}
	i.SetRawInts()
	if i.Ints() == nil || i.mem == nil {
		t.Fatalf("raw ints %v in mapping %p, want a mapping", i.Ints() == nil, i.mem)
	}
	for r := 0; r <= 256; r++ {
		if got, want := s.Value(r).String(), fmt.Sprint("s", r); got != want {
			t.Fatalf("row %d: s = %q, want %q", r, got, want)
		}
		if got := i.Int(r); got != int64(r) {
			t.Fatalf("row %d: i = %d, want %d", r, got, r)
		}
	}
}
