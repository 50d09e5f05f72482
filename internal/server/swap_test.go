package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

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

// TestReleaseSwapsUnderConcurrentScans races scanners of a zpack dataset
// cut into several fragments, every query a scan, against a loop of releases
// that swap it for its unloaded twin and collect now and then: every answer
// is the one the dataset gave before any release.
func TestReleaseSwapsUnderConcurrentScans(t *testing.T) {
	smallFragments(t, 1)
	_, reg, _ := newZpackServer(t, Config{CacheEntries: -1})
	want := make([][]byte, len(swapQueries))
	for i, q := range swapQueries {
		b, err := answer(t, reg, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	stop := make(chan struct{})
	var releaser sync.WaitGroup
	releaser.Add(1)
	go func() {
		defer releaser.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.release("sales")
			if i%8 == 0 {
				runtime.GC()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	const scanners, rounds = 4, 10
	var wg sync.WaitGroup
	errs := make(chan string, scanners)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(len(swapQueries))
				got, err := answer(t, reg, swapQueries[k])
				if err != nil || !bytes.Equal(got, want[k]) {
					errs <- fmt.Sprintf("scanner %d round %d query %d: %v\n%.300s\nwant\n%.300s", g, i, k, err, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	releaser.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if reg.Get("sales").Stats().BlocksReleased == 0 {
		t.Error("no release dropped a block")
	}
}

// TestReleaseCachedResultStillEncodes: a release keeps the result cache, and
// a cached categorical result holds the dictionary it decodes through, not
// the released snapshot's arrays: after the release and collections it reads
// as before, and the repeated request, a cache hit, answers the same bytes.
func TestReleaseCachedResultStillEncodes(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	_, reg, _ := newZpackServer(t, Config{})
	first, err := answer(t, reg, risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	cached := cachedRows(reg)
	if !strings.Contains(cached, "product") {
		t.Fatalf("no categorical result cached:\n%.300s", cached)
	}
	scans := reg.Get("sales").Stats().RowsScanned
	reg.release("sales")
	if reg.Get("sales").ResidentBytes() != 0 {
		t.Fatal("the release left blocks in place")
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := cachedRows(reg); got != cached {
		t.Errorf("the cache after the release reads\n%.300s\nwant\n%.300s", got, cached)
	}
	again, err := answer(t, reg, risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Errorf("after the release the query answers\n%.300s\nwant\n%.300s", again, first)
	}
	if got := reg.Get("sales").Stats().RowsScanned; got != scans {
		t.Errorf("the repeat scanned %d rows, want every result from the kept cache", got-scans)
	}
}

// cachedRows renders every result the sales dataset's cache holds, cell by
// cell, by key.
func cachedRows(reg *Registry) string {
	c := reg.Get("sales").cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var lines []string
	for key, el := range c.items {
		res := el.Value.(*cacheEntry).res
		lines = append(lines, fmt.Sprintf("%s %v %v", key, res.Cols, res.Rows()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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
		"segmentsSkipped": s.SegmentsSkipped, "segmentLoads": s.SegmentLoads, "blocksReleased": s.BlocksReleased,
		"cache.hits": s.Cache.Hits, "cache.misses": s.Cache.Misses, "cache.evictions": s.Cache.Evictions,
		"coalesce.submissions": s.Coalesce.Submissions, "coalesce.batches": s.Coalesce.Batches,
		"coalesce.coalesced": s.Coalesce.Coalesced,
	}
	for _, p := range s.SkipProvenance {
		out["skip."+p.Column+"."+p.Via] = p.Count
	}
	return out
}

// TestCountersSurviveEverySwap: an append, a compaction and a release each
// swap the dataset's store, coalescer and, but for the release, cache; no
// /stats counter and no /metrics counter series ever goes down across them,
// and the engine counters keep counting from where they were.
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
	if stats["rowsScanned"] == 0 || stats["segmentLoads"] == 0 || stats["coalesce.batches"] == 0 {
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
		{"release", func() {
			reg.release("sales")
			if reg.Get("sales").ResidentBytes() != 0 {
				t.Fatal("the release left blocks in place")
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
		if stats["rowsScanned"] <= scanned && s.name != "release" {
			t.Errorf("after the %s the queries scanned nothing", s.name)
		}
	}
}
