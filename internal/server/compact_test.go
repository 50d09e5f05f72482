package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/zpack"
)

// postCompact triggers POST /datasets/{name}/compact with the given body.
func postCompact(t *testing.T, url, name string, body any) (CompactResponse, *http.Response, []byte) {
	t.Helper()
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		buf = bytes.NewReader(b)
	} else {
		buf = bytes.NewReader(nil)
	}
	resp, err := http.Post(url+"/datasets/"+name+"/compact", "application/json", buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out CompactResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad compact response %s: %v", raw, err)
		}
	}
	return out, resp, raw
}

// disorderedRow is a row below the fixture's value range on every plausible
// cluster column (product sorts first, 1999 predates every fixture year,
// negative revenue), so appending a segment of them makes the file unsorted
// no matter which column the automatic pick lands on.
func disorderedRow(i int) []any {
	return salesRow(fmt.Sprintf("aaa_tail_%d", i%3), 1999, -float64(i+1))
}

func TestCompactEndpointReclusters(t *testing.T) {
	ts, reg, path := newZpackServer(t, Config{})
	query := `
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | 'product'.'aaa_tail_0'`
	// Dirty the file: 4500 appended rows cross a segment boundary, so at
	// least one sealed segment holds only out-of-range values. They arrive in
	// three appends with a query behind each, so the snapshot the compaction
	// replaces is a reopened one its query has read segments of.
	var before queryEnvelope
	var scanned int64
	for b := 0; b < 3; b++ {
		batch := make([][]any, 1500)
		for i := range batch {
			batch[i] = disorderedRow(b*1500 + i)
		}
		if _, resp, raw := appendRows(t, ts.URL, "sales", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d: %s", resp.StatusCode, raw)
		}
		scanned = reg.Get("sales").Stats().SegmentsScanned
		before = postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: query})
	}
	if got := reg.Get("sales").ctr.unsortedSegs.Load(); got == 0 {
		t.Fatal("append left the unsorted-segments gauge at 0; the fixture no longer disorders the file")
	}
	appended := reg.Get("sales").packR
	if loads, want := appended.SegmentLoads(), reg.Get("sales").Stats().SegmentsScanned-scanned; loads != want || loads == 0 {
		t.Fatalf("the third append's snapshot read %d segments from disk, want the %d its query scanned", loads, want)
	}

	out, resp, raw := postCompact(t, ts.URL, "sales", CompactRequest{Cols: []string{"product", "year"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	if out.Rows != 14500 || out.Generation != 1 || out.UnsortedBefore == 0 {
		t.Errorf("compact response = %+v, want 14500 rows, generation 1, unsorted > 0", out)
	}
	if strings.Join(out.Cols, ",") != "product,year" {
		t.Errorf("compact cols = %v, want the requested [product year]", out.Cols)
	}

	// The new generation is another inode with the rows in another order:
	// the reader opens it cold, and the query below reads its segments from
	// the new file.
	compacted := reg.Get("sales").packR
	if compacted == appended || compacted.SegmentLoads() != 0 {
		t.Fatalf("post-compaction reader starts with %d segments read, want a cold open", compacted.SegmentLoads())
	}

	// Results must not move: same bytes as before the rewrite, and same
	// bytes as a cold session over the compacted file.
	after := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: query})
	if !bytes.Equal(before.Result, after.Result) {
		t.Errorf("compaction changed a query result:\nbefore: %.200s\nafter:  %.200s", before.Result, after.Result)
	}
	sess, err := client.OpenZpack(path, client.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := encodePayload(t, EncodeResult(want)); !bytes.Equal(after.Result, wantBytes) {
		t.Errorf("post-compact result differs from fresh session:\nserver: %.200s\nlocal:  %.200s", after.Result, wantBytes)
	}
	if compacted.SegmentLoads() == 0 {
		t.Error("the query over the compacted generation read nothing from it")
	}

	// The lifecycle is visible on /stats...
	st := reg.Get("sales").Stats()
	if st.Compaction == nil {
		t.Fatal("no compaction block on /stats for a zpack dataset")
	}
	if st.Compaction.Generation != 1 || st.Compaction.Compactions != 1 || st.Compaction.Failures != 0 {
		t.Errorf("compaction stats = %+v", st.Compaction)
	}
	if st.Compaction.UnsortedSegments != 0 || st.Compaction.ClusterCol != "product" {
		t.Errorf("post-compact gauge = %d on %q, want 0 on product",
			st.Compaction.UnsortedSegments, st.Compaction.ClusterCol)
	}
	if st.Compaction.RowsRewritten != 14500 {
		t.Errorf("rowsRewritten = %d, want 14500", st.Compaction.RowsRewritten)
	}
	// ...and on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`zen_compactions_total{dataset="sales"} 1`,
		`zen_compaction_generation{dataset="sales"} 1`,
		`zen_compaction_unsorted_segments{dataset="sales"} 0`,
		`zen_compaction_rows_rewritten_total{dataset="sales"} 14500`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The dataset stays live: appendable over the new generation, and a
	// second compaction (auto-picked columns this time) advances it again.
	if _, resp, raw := appendRows(t, ts.URL, "sales", [][]any{disorderedRow(0)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-compact append status %d: %s", resp.StatusCode, raw)
	}
	out2, resp, raw := postCompact(t, ts.URL, "sales", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compact status %d: %s", resp.StatusCode, raw)
	}
	if out2.Generation != 2 || out2.Rows != 14501 {
		t.Errorf("second compact = %+v, want generation 2 over 14501 rows", out2)
	}
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("generation 2 fails verification: %v", err)
	}
}

func TestCompactEndpointErrors(t *testing.T) {
	t.Run("unknown dataset", func(t *testing.T) {
		ts, _, _ := newZpackServer(t, Config{})
		_, resp, _ := postCompact(t, ts.URL, "nope", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("unknown column", func(t *testing.T) {
		ts, _, _ := newZpackServer(t, Config{})
		_, resp, raw := postCompact(t, ts.URL, "sales", CompactRequest{Cols: []string{"nope"}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("bad body", func(t *testing.T) {
		ts, _, _ := newZpackServer(t, Config{})
		resp, err := http.Post(ts.URL+"/datasets/sales/compact", "application/json",
			strings.NewReader(`{"cols": ["product"], "unknown": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("not compactable", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{}) // in-memory table, no zpack backing
		_, resp, raw := postCompact(t, ts.URL, "sales", nil)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
}

// TestCompactKeepsBackendName: the successor a compaction swaps in keeps the
// name the dataset was registered under, as an append's does, on /datasets
// and on /stats.
func TestCompactKeepsBackendName(t *testing.T) {
	ts, reg, _ := newZpackServer(t, Config{Backend: "auto"})
	if _, resp, raw := postCompact(t, ts.URL, "sales", CompactRequest{Cols: []string{"product"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	if _, resp, raw := appendRows(t, ts.URL, "sales", [][]any{disorderedRow(0)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	if _, _, err := reg.Compact("sales", nil); err != nil {
		t.Fatal(err)
	}
	_, raw := get(t, ts.URL+"/datasets")
	if want := `"name":"sales","backend":"auto"`; !bytes.Contains(raw, []byte(want)) {
		t.Errorf("/datasets after compaction = %s, want %s", raw, want)
	}
	if got := reg.Get("sales").Stats().Backend; got != "auto" {
		t.Errorf("Stats().Backend after compaction = %q, want auto", got)
	}
}

// TestCompactorSweepPolicy drives the background policy without the ticker:
// threshold gating, the pause-during-append quiesce, and convergence (a
// compacted dataset stops triggering).
func TestCompactorSweepPolicy(t *testing.T) {
	ts, reg, _ := newZpackServer(t, Config{})
	d := reg.Get("sales")

	// Far-above-threshold compactor never fires on this file.
	tall := NewCompactor(reg, CompactorConfig{Interval: time.Hour, Threshold: 10000, Quiesce: time.Nanosecond})
	if got := tall.Sweep(); len(got) != 0 {
		t.Fatalf("threshold 10000 compacted %v", got)
	}

	// Disorder the file past any threshold of 1.
	batch := make([][]any, 4500)
	for i := range batch {
		batch[i] = disorderedRow(i)
	}
	if _, resp, raw := appendRows(t, ts.URL, "sales", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	if reg.Get("sales").ctr.unsortedSegs.Load() == 0 {
		t.Fatal("append left the gauge at 0")
	}

	// Quiesce: the append just happened, so a compactor with a long debounce
	// must hold off even though the threshold is met.
	patient := NewCompactor(reg, CompactorConfig{Interval: time.Hour, Threshold: 1, Quiesce: time.Hour})
	if got := patient.Sweep(); len(got) != 0 {
		t.Fatalf("quiescing compactor fired %v during an ingest burst", got)
	}
	if n := reg.Get("sales").ctr.compactions.Load(); n != 0 {
		t.Fatalf("compactions = %d while quiesced", n)
	}

	// With the debounce elapsed (1ns), the same state triggers a rewrite.
	eager := NewCompactor(reg, CompactorConfig{Interval: time.Hour, Threshold: 1, Quiesce: time.Nanosecond})
	if got := eager.Sweep(); len(got) != 1 || got[0] != "sales" {
		t.Fatalf("Sweep = %v, want [sales]", got)
	}
	nd := reg.Get("sales")
	if nd.ctr.generation.Load() != 1 || nd.ctr.unsortedSegs.Load() != 0 {
		t.Fatalf("after sweep: generation %d, gauge %d", nd.ctr.generation.Load(), nd.ctr.unsortedSegs.Load())
	}
	if nd == d {
		t.Fatal("sweep did not swap a new dataset snapshot in")
	}

	// Converged: nothing left to do.
	if got := eager.Sweep(); len(got) != 0 {
		t.Fatalf("second sweep recompacted %v (policy does not converge)", got)
	}
}

// TestIngestUnderCompactionLoad is the ingest-under-load tier: queries race
// appends AND full compaction cutovers. Every response must succeed — no
// torn reads, no stale-descriptor errors, no lost rows — and the final file
// must verify and serve exactly what a cold session serves.
func TestIngestUnderCompactionLoad(t *testing.T) {
	ts, reg, path := newZpackServer(t, Config{})
	query := `
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | v1 <- 'product'.*`
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, _ := json.Marshal(QueryRequest{Dataset: "sales", ZQL: query})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("query status %d: %.200s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	const rounds, perRound = 5, 600
	for i := 0; i < rounds; i++ {
		batch := make([][]any, perRound)
		for j := range batch {
			batch[j] = salesRow(fmt.Sprintf("live_%d", i), 2016+i, float64(j))
		}
		if _, resp, raw := appendRows(t, ts.URL, "sales", batch); resp.StatusCode != http.StatusOK {
			t.Errorf("append %d status %d: %s", i, resp.StatusCode, raw)
		}
		out, resp, raw := postCompact(t, ts.URL, "sales", CompactRequest{Cols: []string{"product", "year"}})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("compact %d status %d: %s", i, resp.StatusCode, raw)
		} else if out.Rows != 10000+(i+1)*perRound {
			t.Errorf("compact %d rewrote %d rows, want %d", i, out.Rows, 10000+(i+1)*perRound)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	st := reg.Get("sales").Stats()
	if st.Rows != 10000+rounds*perRound {
		t.Fatalf("final rows = %d, want %d", st.Rows, 10000+rounds*perRound)
	}
	if st.Compaction == nil || st.Compaction.Compactions != rounds || st.Compaction.Failures != 0 {
		t.Fatalf("compaction stats = %+v, want %d clean compactions", st.Compaction, rounds)
	}
	if st.Coalesce.Shed != 0 {
		t.Errorf("shed = %d under default queue bounds", st.Coalesce.Shed)
	}

	// The durable file is complete, verified, and serves the same bytes the
	// live server does.
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("final generation fails verification: %v", err)
	}
	if r.Rows() != 10000+rounds*perRound {
		t.Fatalf("durable rows = %d", r.Rows())
	}
	live := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: query})
	sess, err := client.OpenZpack(path, client.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := encodePayload(t, EncodeResult(want)); !bytes.Equal(live.Result, wantBytes) {
		t.Errorf("live result differs from cold session over the final file:\nserver: %.200s\nlocal:  %.200s", live.Result, wantBytes)
	}
}
