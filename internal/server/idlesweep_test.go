package server

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"testing"
	"time"

	"repro/internal/workload"
)

// runtimeInt reads one integer runtime metric, signed so that the GC percent
// reads -1 when the collector is off.
func runtimeInt(name string) int64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestIdleSweeperLifecycle: once started, the sweeper runs an idle sweep
// after every GC cycle, so a file-backed dataset nobody queries is released
// within a few collections; it never changes the GC percent; and after Stop
// no collection sweeps again.
func TestIdleSweeperLifecycle(t *testing.T) {
	base := runtimeInt("/gc/gogc:percent")
	ts, reg, _ := newZpackServer(t, Config{CacheEntries: -1}) // every query scans
	d := func() *Dataset { return reg.Get("sales") }
	first := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	if d().ResidentBytes() == 0 {
		t.Fatal("nothing resident after a query")
	}

	s := StartIdleSweeper(reg)
	t.Cleanup(s.Stop)
	deadline := time.Now().Add(60 * time.Second)
	for d().Stats().BlocksReleased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no block released within a minute of collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := runtimeInt("/gc/gogc:percent"); got != base {
		t.Errorf("GC percent %d while sweeping, want the process's %d", got, base)
	}
	waitFor(t, func() bool { return d().ResidentBytes() == 0 })

	s.Stop()
	again := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	if string(again.Result) != string(first.Result) {
		t.Errorf("after the release the query answers\n%.200s\nwant\n%.200s", again.Result, first.Result)
	}
	resident, released := d().ResidentBytes(), d().Stats().BlocksReleased
	for i := 0; i < 3*idleSweeps; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if d().ResidentBytes() != resident || d().Stats().BlocksReleased != released {
		t.Errorf("after Stop: %d bytes resident and %d blocks released, want %d and %d",
			d().ResidentBytes(), d().Stats().BlocksReleased, resident, released)
	}
}

// waitFor polls cond for up to a minute: an idle sweep runs on the
// finalizer goroutine, after the collection that queued it has returned.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within a minute")
		}
	}
}

// TestIdleSweeperLeavesGOGCAlone: a process whose collector is off stays
// off, through start-up and sweeps.
func TestIdleSweeperLeavesGOGCAlone(t *testing.T) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	reg := NewRegistry()
	if _, err := reg.AddTable(workload.Sales(workload.SalesConfig{Rows: 20000, Products: 8, Years: 8, Cities: 4, Seed: 3}), Config{}); err != nil {
		t.Fatal(err)
	}
	s := StartIdleSweeper(reg)
	runtime.GC()
	if got := runtimeInt("/gc/gogc:percent"); got != -1 {
		t.Errorf("GC percent %d while sweeping, want -1 (off)", got)
	}
	s.Stop()
	if got := runtimeInt("/gc/gogc:percent"); got != -1 {
		t.Errorf("GC percent %d after Stop, want -1 (off)", got)
	}
}
