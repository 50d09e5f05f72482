package zpack

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// TestSpillIsAnUnnamedBuild: a spill is byte for byte the file Build writes
// for the same table, nothing of it is left in its directory, and its Reader
// verifies and serves the table.
func TestSpillIsAnUnnamedBuild(t *testing.T) {
	const S = engine.SegmentSize
	_, procErr := os.Stat("/proc/self/fd")
	for _, tc := range []struct{ rows, wideAt int }{{1, math.MaxInt}, {S, math.MaxInt}, {3*S + 7, math.MaxInt}, {3*S + 7, S}} {
		tb := mixedTable(tc.rows, int64(tc.rows), tc.wideAt)
		dir := t.TempDir()
		built := filepath.Join(t.TempDir(), "built.zpack")
		if err := Build(built, tb); err != nil {
			t.Fatal(err)
		}
		r, err := Spill(tb, dir)
		if err != nil {
			t.Fatal(err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%d rows: the spill's directory holds %v (%v), want nothing", tc.rows, ents, err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%d rows: %v", tc.rows, err)
		}
		if procErr == nil {
			// The unlinked file is still reachable through its descriptor.
			spilled := fmt.Sprintf("/proc/self/fd/%d", r.f.Fd())
			if got, want := fileSum(t, spilled), fileSum(t, built); got != want {
				t.Fatalf("%d rows: spill %s, Build %s", tc.rows, got, want)
			}
		}
		if r.ResidentBytes() != 0 {
			t.Fatalf("%d rows: a fresh spill has %d bytes loaded", tc.rows, r.ResidentBytes())
		}
		if err := r.LoadAll(); err != nil {
			t.Fatal(err)
		}
		assertPrefixEqual(t, r.Table(), tb)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpillFailsCleanly(t *testing.T) {
	if _, err := Spill(testTable(10), filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("spill into a missing directory succeeded")
	}
	dir := t.TempDir()
	tb := testTable(10)
	tb.Name = ""
	if _, err := Spill(tb, dir); err == nil {
		t.Fatal("spill of an unnamed table succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("a failed spill left %v", ents)
	}
}
