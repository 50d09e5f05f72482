package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dataset"
	"repro/internal/engine"
)

const yearRevenue = "NAME | X | Y\n*f1 | 'year' | 'revenue'"

// swapQueries read every column of the test table between them, through a
// fixed slice, a '*' enumeration, a process phase and a plain trend.
var swapQueries = []string{yearRevenue, pointQuery, risingQuery, shardedZQL}

// answer runs zql on the dataset the registry serves as sales now and
// returns the response payload.
func answer(t *testing.T, reg *Registry, zql string) ([]byte, error) {
	res, err := reg.Get("sales").Session().Query(zql)
	if err != nil {
		return nil, err
	}
	return encodePayload(t, EncodeResult(res)), nil
}

// TestAppendSwapsUnderConcurrentScans races scanners of a zpack dataset cut
// into several fragments, every query a scan, against appends that swap its
// snapshot: every answer is byte for byte what engine.NewColumnStore over the
// same rows answers, whichever snapshot the scanner met, and no scan keeps a
// block to hand on or give back.
func TestAppendSwapsUnderConcurrentScans(t *testing.T) {
	smallFragments(t, 1)
	_, reg, _ := newZpackServer(t, Config{CacheEntries: -1})
	base := testTable()
	const batches, batchRows = 6, 700
	var appended []dataset.Row
	for b := 0; b < batches*batchRows; b++ {
		row := base.Row((b * 7) % base.NumRows())
		row[len(row)-1] = dataset.FV(float64(b%97) / 3) // revenue, non-dyadic
		appended = append(appended, row)
	}

	// want answers query k over the first rows rows, through the in-memory
	// column store, once per (rows, k).
	var mu sync.Mutex
	wants := map[[2]int][]byte{}
	want := func(rows, k int) []byte {
		mu.Lock()
		defer mu.Unlock()
		if b, ok := wants[[2]int{rows, k}]; ok {
			return b
		}
		tb := testTable()
		for _, row := range appended[:rows-tb.NumRows()] {
			tb.AppendRow(row...)
		}
		s, err := client.OpenDB(engine.NewColumnStore(tb), tb.Name, client.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(swapQueries[k])
		if err != nil {
			t.Fatal(err)
		}
		b := encodePayload(t, EncodeResult(res))
		wants[[2]int{rows, k}] = b
		return b
	}

	stop := make(chan struct{})
	var appender sync.WaitGroup
	var appendsDone atomic.Bool
	appender.Add(1)
	go func() {
		defer appender.Done()
		defer appendsDone.Store(true)
		for b := 0; b < batches; b++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := reg.Append("sales", appended[b*batchRows:(b+1)*batchRows]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const scanners, rounds = 4, 12
	var wg sync.WaitGroup
	errs := make(chan string, scanners)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Every scanner runs its rounds, and goes on until the last
			// append has swapped in.
			for i := 0; i < rounds || !appendsDone.Load(); i++ {
				k := rng.Intn(len(swapQueries))
				d := reg.Get("sales")
				res, err := d.Session().Query(swapQueries[k])
				if err != nil {
					errs <- fmt.Sprintf("scanner %d round %d query %d: %v", g, i, k, err)
					return
				}
				if got, w := encodePayload(t, EncodeResult(res)), want(d.Table().NumRows(), k); !bytes.Equal(got, w) {
					errs <- fmt.Sprintf("scanner %d round %d query %d over %d rows:\n%.300s\nwant\n%.300s", g, i, k, d.Table().NumRows(), got, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	appender.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, want := reg.Get("sales").Table().NumRows(), base.NumRows()+batches*batchRows; got != want && !t.Failed() {
		t.Errorf("%d rows served after the appends, want %d", got, want)
	}
}

// TestCompactionDropsTheOldGeneration: a compaction keeps only the
// superseded generation's descriptor, so once nothing reads that generation
// a collection takes its Reader, and nothing of it but the descriptor
// outlives the cutover.
func TestCompactionDropsTheOldGeneration(t *testing.T) {
	_, reg, _ := newZpackServer(t, Config{})
	if _, err := answer(t, reg, risingQuery); err != nil {
		t.Fatal(err)
	}
	// A finalizer on what only the old Reader reaches: the Reader itself
	// is in a cycle (its raw columns' DistinctSorted hooks), which a
	// finalizer would keep from being collected.
	var collected atomic.Bool
	runtime.SetFinalizer(reg.Get("sales").packR.Zone("revenue"), func(*engine.ZoneData) { collected.Store(true) })
	if _, _, err := reg.Compact("sales", []string{"product"}); err != nil {
		t.Fatal(err)
	}
	if _, err := answer(t, reg, risingQuery); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !collected.Load(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("10 s after the compaction the old generation's Reader is still reachable")
		}
		runtime.GC()
	}
}

// counterSeries scrapes /metrics and returns every sample of a counter
// family, by series.
func counterSeries(t *testing.T, url string) map[string]float64 {
	t.Helper()
	_, body := get(t, url+"/metrics")
	counters := map[string]bool{}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			counters[f[2]] = f[3] == "counter"
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil || !counters[m[1]] {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// statsCounters returns the sales dataset's /stats counters that only grow,
// by name.
func statsCounters(t *testing.T, url string) map[string]int64 {
	t.Helper()
	_, raw := get(t, url+"/stats")
	var st struct {
		Datasets map[string]DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	s := st.Datasets["sales"]
	out := map[string]int64{
		"queries": s.Queries, "rowsScanned": s.RowsScanned, "segmentsScanned": s.SegmentsScanned,
		"segmentsSkipped": s.SegmentsSkipped,
		"cache.hits":      s.Cache.Hits, "cache.misses": s.Cache.Misses, "cache.evictions": s.Cache.Evictions,
		"coalesce.submissions": s.Coalesce.Submissions, "coalesce.batches": s.Coalesce.Batches,
		"coalesce.coalesced": s.Coalesce.Coalesced,
	}
	for _, p := range s.SkipProvenance {
		out["skip."+p.Column+"."+p.Via] = p.Count
	}
	return out
}

// TestCountersSurviveEverySwap: an append and a compaction each swap the
// dataset's store, coalescer and cache; no /stats counter and no /metrics
// counter series ever goes down across them, and the engine counters keep
// counting from where they were.
func TestCountersSurviveEverySwap(t *testing.T) {
	smallFragments(t, 1)
	ts, reg, _ := newZpackServer(t, Config{})
	work := func() {
		for _, q := range append(swapQueries, conjunctsQuery) {
			if _, err := answer(t, reg, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	work()
	stats, series := statsCounters(t, ts.URL), counterSeries(t, ts.URL)
	if stats["rowsScanned"] == 0 || stats["segmentsScanned"] == 0 || stats["coalesce.batches"] == 0 {
		t.Fatalf("the first queries counted nothing: %v", stats)
	}
	check := func(step string) {
		t.Helper()
		now, nowSeries := statsCounters(t, ts.URL), counterSeries(t, ts.URL)
		for k, v := range stats {
			if now[k] < v {
				t.Errorf("%s: /stats %s went %d -> %d", step, k, v, now[k])
			}
		}
		for k, v := range series {
			if got, ok := nowSeries[k]; !ok || got < v {
				t.Errorf("%s: /metrics %s went %v -> %v (present %v)", step, k, v, got, ok)
			}
		}
		stats, series = now, nowSeries
	}
	steps := []struct {
		name string
		swap func()
	}{
		{"append", func() {
			if _, resp, body := appendRows(t, ts.URL, "sales", [][]any{salesRow("product0001", 2001, 5.5)}); resp.StatusCode != http.StatusOK {
				t.Fatalf("append: %d %s", resp.StatusCode, body)
			}
		}},
		{"compaction", func() {
			if _, _, err := reg.Compact("sales", []string{"product"}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range steps {
		before := reg.Get("sales")
		s.swap()
		if reg.Get("sales") == before {
			t.Fatalf("the %s swapped nothing in", s.name)
		}
		check(s.name)
		scanned := stats["rowsScanned"]
		work()
		check(s.name + ", then queries")
		if stats["rowsScanned"] <= scanned {
			t.Errorf("after the %s the queries scanned nothing", s.name)
		}
	}
}
