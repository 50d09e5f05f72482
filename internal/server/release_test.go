package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const yearRevenue = "NAME | X | Y\n*f1 | 'year' | 'revenue'"

// TestReleaseAtTheFourthIdleSweep: a file-backed dataset that starts a query
// between every two sweeps keeps its blocks across 100 sweeps; left idle, it
// is swapped for its unloaded twin at exactly the fourth idle sweep, counts
// the blocks the old snapshot had on /stats and /metrics, and answers the
// next query identically.
func TestReleaseAtTheFourthIdleSweep(t *testing.T) {
	ts, reg, _ := newZpackServer(t, Config{CacheEntries: -1}) // every query scans
	d := func() *Dataset { return reg.Get("sales") }
	first := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	for i := 0; i < 100; i++ {
		reg.sweepIdle()
		postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	}
	loaded := d()
	resident := loaded.ResidentBytes()
	if got := loaded.Stats().BlocksReleased; got != 0 || resident == 0 {
		t.Fatalf("scanned between every sweep: %d blocks released, %d bytes resident", got, resident)
	}

	reg.sweepIdle() // the last query's scan: not idle
	for i := 1; i <= idleSweeps; i++ {
		reg.sweepIdle()
		released := d().Stats().BlocksReleased
		if i < idleSweeps {
			if released != 0 || d() != loaded {
				t.Fatalf("idle sweep %d: %d blocks released, dataset swapped %v", i, released, d() != loaded)
			}
			continue
		}
		if released == 0 || d() == loaded || d().ResidentBytes() != 0 {
			t.Fatalf("idle sweep %d: %d blocks released, %d bytes resident", i, released, d().ResidentBytes())
		}
	}
	released := d().Stats().BlocksReleased
	reg.sweepIdle() // released already: nothing in place, no second swap
	if got := d().Stats().BlocksReleased; got != released {
		t.Fatalf("a sweep after the release counted %d more blocks", got-released)
	}

	_, raw := get(t, ts.URL+"/stats")
	var st struct {
		Datasets map[string]DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Datasets["sales"].BlocksReleased; got != released {
		t.Errorf("/stats blocksReleased = %d, want %d", got, released)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`zen_blocks_released_total{dataset="sales"} %d`, released),
		`zen_dataset_resident_bytes{dataset="sales"} 0`,
	} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	again := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	if !bytes.Equal(again.Result, first.Result) {
		t.Errorf("after the release the query answers\n%.200s\nwant\n%.200s", again.Result, first.Result)
	}
	if got := d().ResidentBytes(); got != resident {
		t.Errorf("after reading the blocks again %d bytes resident, want %d", got, resident)
	}
}
