package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const yearRevenue = "NAME | X | Y\n*f1 | 'year' | 'revenue'"

// TestReleaseAtTheFourthIdleSweep: a file-backed dataset that starts a scan
// between every two sweeps keeps its blocks across 100 sweeps; left idle, it
// hands them back at exactly the fourth idle sweep, counts them on /stats and
// /metrics, and answers the next query identically. An in-memory dataset
// beside it releases nothing.
func TestReleaseAtTheFourthIdleSweep(t *testing.T) {
	ts, reg, _ := newZpackServer(t, Config{CacheEntries: -1}) // every query scans
	mem := testTable()
	mem.Name = "mem"
	if _, err := reg.AddTable(mem, Config{}); err != nil {
		t.Fatal(err)
	}
	d := reg.Get("sales")
	first := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	for i := 0; i < 100; i++ {
		reg.sweepIdle()
		postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	}
	resident := d.ResidentBytes()
	if got := d.Stats().BlocksReleased; got != 0 || resident == 0 {
		t.Fatalf("scanned between every sweep: %d blocks released, %d bytes resident", got, resident)
	}

	reg.sweepIdle() // the last query's scan: not idle
	for i := 1; i <= idleSweeps; i++ {
		reg.sweepIdle()
		released := d.Stats().BlocksReleased
		if i < idleSweeps {
			if released != 0 || d.ResidentBytes() != resident {
				t.Fatalf("idle sweep %d: %d blocks released, %d of %d bytes resident", i, released, d.ResidentBytes(), resident)
			}
			continue
		}
		if released == 0 || d.ResidentBytes() != 0 {
			t.Fatalf("idle sweep %d: %d blocks released, %d bytes resident", i, released, d.ResidentBytes())
		}
	}
	released := d.Stats().BlocksReleased

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
	if st.Datasets["mem"].BlocksReleased != 0 {
		t.Errorf("the in-memory dataset released %d blocks", st.Datasets["mem"].BlocksReleased)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`zen_blocks_released_total{dataset="sales"} %d`, released),
		`zen_dataset_resident_bytes{dataset="sales"} 0`,
		`zen_blocks_released_total{dataset="mem"} 0`,
	} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if got, want := reg.Get("mem").ResidentBytes(), reg.Get("mem").Table().SizeBytes(); got != want {
		t.Errorf("in-memory dataset: %d bytes resident, want the table's %d", got, want)
	}

	again := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: yearRevenue})
	if !bytes.Equal(again.Result, first.Result) {
		t.Errorf("after the release the query answers\n%.200s\nwant\n%.200s", again.Result, first.Result)
	}
	if d.ResidentBytes() != resident {
		t.Errorf("after reading the blocks again %d bytes resident, want %d", d.ResidentBytes(), resident)
	}
}
