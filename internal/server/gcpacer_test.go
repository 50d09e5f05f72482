package server

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// The pacer's tests change the process-wide GC percent: none of them runs in
// parallel, and each restores the setting it found in t.Cleanup.

func TestGCPercentDerivation(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name               string
		base               int
		live, pinned, want int64
	}{
		{"no table", 100, 30 * mib, 0, 100},
		{"no table at the floor", 100, 4 * mib, 0, 100},
		{"churn below the floor", 100, 27 * mib, 25 * mib, 15},       // ⌈100 × 4/27⌉
		{"churn above the floor", 100, 33 * mib, 25 * mib, 25},       // ⌈100 × 8/33⌉
		{"pinned above live", 100, 20 * mib, 25 * mib, 20},           // 100 × 4/20
		{"base 50", 50, 33 * mib, 25 * mib, 13},                      // ⌈50 × 8/33⌉
		{"base 200", 200, 33 * mib, 25 * mib, 49},                    // ⌈200 × 8/33⌉
		{"base 200 no table", 200, 30 * mib, 0, 200},                 // never above base
		{"clamped to one", 100, 100 << 30, 100<<30 - mib, 1},         // ⌈0.004⌉
		{"off", -1, 33 * mib, 25 * mib, -1},                          // GOGC=off is left alone
		{"zero", 0, 33 * mib, 25 * mib, 0},                           // so is GOGC=0
		{"no cycle measured yet", 100, 0, 25 * mib, 100},             // nothing to scale by
		{"base 50 churn below the floor", 50, 27 * mib, 25 * mib, 8}, // ⌈50 × 4/27⌉
	} {
		if got := gcPercent(c.base, c.live, c.pinned); int64(got) != c.want {
			t.Errorf("%s: gcPercent(%d, %d, %d) = %d, want %d", c.name, c.base, c.live, c.pinned, got, c.want)
		}
	}
}

// awaitPacedPercent collects and waits for the pacer's finalizer to set the
// derivation over the heap that cycle marked and the tables pinned now. It
// returns that percent and that live heap.
func awaitPacedPercent(t *testing.T, base int, pinned int64) (int, int64) {
	t.Helper()
	runtime.GC()
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := runtimeInt("/gc/heap/live:bytes")
		got := int(runtimeInt("/gc/gogc:percent"))
		if got == gcPercent(base, live, pinned) {
			return got, live
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC percent %d, want gcPercent(%d, live %d, pinned %d) = %d", got, base, live, pinned, gcPercent(base, live, pinned))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGCPacerLifecycle runs the pacer over a zpack dataset of more than 8 MB
// beside 16 MiB of churn it must not count: the percent it sets after a cycle
// is the derivation's and below the process's own; after an append swaps in a
// successor with headroom, the pinned bytes are the new table's; Stop puts
// the process's GOGC back.
func TestGCPacerLifecycle(t *testing.T) {
	base := int(runtimeInt("/gc/gogc:percent"))
	if base <= 0 {
		t.Skipf("GOGC is %d in this process: the pacer leaves it alone", base)
	}
	t.Cleanup(func() { debug.SetGCPercent(base) })

	path := filepath.Join(t.TempDir(), "sales.zpack")
	src := workload.Sales(workload.SalesConfig{Rows: 400000, Products: 8, Years: 8, Cities: 4, Seed: 3})
	if err := zpack.Build(path, src); err != nil {
		t.Fatal(err)
	}
	batch := make([]dataset.Row, 256)
	for i := range batch {
		batch[i] = src.Row(i)
	}
	reg := NewRegistry()
	if _, err := reg.AddZpack("sales", path, Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	pinned := reg.Get("sales").Table().SizeBytes()
	if pinned < 8<<20 {
		t.Fatalf("the table holds %d bytes, want at least 8 MiB", pinned)
	}
	churn := make([]byte, 16<<20)

	p := StartGCPacer(reg)
	t.Cleanup(p.Stop)
	got, live := awaitPacedPercent(t, base, pinned)
	if got >= base {
		t.Errorf("GC percent %d with %d of %d live bytes pinned, want below GOGC %d", got, pinned, live, base)
	}
	t.Logf("table %d bytes, live %d: GC percent %d", pinned, live, got)

	// The first append outgrows the exact-size arrays Open allocated.
	if _, err := reg.Append("sales", batch); err != nil {
		t.Fatal(err)
	}
	grown := reg.Get("sales").Table().SizeBytes()
	if grown <= pinned {
		t.Fatalf("after the append the table holds %d bytes, want more than %d", grown, pinned)
	}
	got, live = awaitPacedPercent(t, base, grown)
	if stale := gcPercent(base, live, pinned); stale == got {
		t.Fatalf("live %d: the old table's %d and the new one's %d pinned bytes give the same percent %d", live, pinned, grown, got)
	}
	t.Logf("after the swap: table %d bytes, live %d: GC percent %d", grown, live, got)

	p.Stop()
	runtime.GC()
	if got := int(runtimeInt("/gc/gogc:percent")); got != base {
		t.Errorf("after Stop the GC percent is %d, want GOGC %d back", got, base)
	}
	runtime.KeepAlive(churn)
}

// TestGCPacerLeavesGOGCOffAlone: a process whose collector is off stays off.
func TestGCPacerLeavesGOGCOffAlone(t *testing.T) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	reg := NewRegistry()
	if _, err := reg.AddTable(workload.Sales(workload.SalesConfig{Rows: 20000, Products: 8, Years: 8, Cities: 4, Seed: 3}), Config{}); err != nil {
		t.Fatal(err)
	}
	p := StartGCPacer(reg)
	runtime.GC()
	if got := runtimeInt("/gc/gogc:percent"); got != -1 {
		t.Errorf("paced GC percent %d, want -1 (off)", got)
	}
	p.Stop()
	if got := runtimeInt("/gc/gogc:percent"); got != -1 {
		t.Errorf("GC percent %d after Stop, want -1 (off)", got)
	}
}
