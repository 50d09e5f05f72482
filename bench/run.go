package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

const (
	cacheEntries = 256 // zserved -cache: smaller than every cold workload's request list
	serverSeed   = 42  // zserved's default -seed, which the oracle must share
	slices       = 6   // the window is cut into this many equal slices
	rssInterval  = 100 * time.Millisecond
	setupsPerRun = 3 // set-ups timed per run; setup_s is their median
)

// benchEnv is what one invocation shares across its runs: the built
// binaries, the generated CSV and the scratch directory.
type benchEnv struct {
	root        string // repository checkout
	binDir      string
	runDir      string // removed on exit
	serverProcs int    // GOMAXPROCS of the zserved child
	rows        int
	seed        int64
	csvPath     string
	csvBytes    int64
	datagenS    float64
}

type runOpts struct {
	seconds float64
	setups  int  // setupsPerRun; the smoke test makes one
	trace   bool // also collect the per-layer metrics
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	metrics   map[string]float64 // end-to-end, plus per-layer when traced
	attempted int                // operations in the window + oracle checks + the durability check
	failed    int
	queries   int // latency samples behind the percentiles
	notes     []string
	problems  []string
}

// client is the one closed-loop connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // body of the last response
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into c.buf.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// send runs one operation of a workload and reports whether it succeeded.
func (c *client) send(ctx context.Context, o *op) error {
	status, err := c.do(ctx, http.MethodPost, o.path, o.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", o.path, status, c.buf.String())
	}
	return nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	status, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(c.buf.Bytes(), v)
}

func (c *client) stats(ctx context.Context) (server.DatasetStats, error) {
	var out struct {
		Datasets map[string]server.DatasetStats `json:"datasets"`
	}
	err := c.getJSON(ctx, "/stats", &out)
	return out.Datasets[datasetName], err
}

func (c *client) servedRows(ctx context.Context) (int, error) {
	var out struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := c.getJSON(ctx, "/datasets", &out); err != nil {
		return 0, err
	}
	for _, d := range out.Datasets {
		if d.Name == datasetName {
			return d.Rows, nil
		}
	}
	return 0, fmt.Errorf("GET /datasets: no %q", datasetName)
}

// responseStats decodes the stats block that closes a /spec response without
// decoding the result before it.
func responseStats(body []byte) (server.RunStatsJSON, error) {
	var s server.RunStatsJSON
	key := []byte(`"stats":`)
	i := bytes.LastIndex(body, key)
	tail := bytes.TrimRight(body, "\n")
	if i < 0 || len(tail) == 0 {
		return s, fmt.Errorf("response has no stats block")
	}
	return s, json.Unmarshal(tail[i+len(key):len(tail)-1], &s)
}

// instance is one live zserved child with the client connected to it.
type instance struct {
	c        *child
	cl       *client
	dataPath string // the file served
	acked    []int  // append batches the child has acknowledged
}

// stop closes the connection and kills the child. Safe on nil and twice.
func (in *instance) stop() {
	if in != nil {
		in.cl.close()
		in.c.kill()
	}
}

// setUp runs the program's own start-up path for a workload: zpack build
// (and compact) where the workload serves a .zpack, then zserved until
// /readyz, then the warm-up requests.
func setUp(ctx context.Context, env *benchEnv, w *traffic) (*instance, error) {
	in := &instance{dataPath: env.csvPath}
	if w.zpack {
		in.dataPath = filepath.Join(env.runDir, datasetName+".zpack")
		if err := os.Remove(in.dataPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if err := runTool(ctx, env, "zpack", "build", "-o", in.dataPath, "-name", datasetName, env.csvPath); err != nil {
			return nil, err
		}
		if w.compacted {
			if err := runTool(ctx, env, "zpack", "compact", "-cols", "product", in.dataPath); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if in.c, err = startServer(ctx, env, in.dataPath); err != nil {
		return nil, err
	}
	in.cl = newClient(in.c.base)
	for i := 0; i < w.warmup; i++ {
		o := &w.ops[i%len(w.ops)]
		if err := in.cl.send(ctx, o); err != nil {
			in.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if o.isAdd {
			in.acked = append(in.acked, o.batch)
		}
	}
	return in, nil
}

// mark is a sample point at a slice boundary: taken when the first operation
// completes past it, so operations and CPU are read at the same instant.
type mark struct {
	at    time.Time
	ticks int64
	ops   int
}

// window is what the measured window recorded.
type window struct {
	rps, cpu             []float64 // per slice: operations per second, server CPU ms per operation
	lat, addLat, postAdd []float64 // ms
	rss                  []float64 // MB, one sample per rssInterval
	attempted, failed    int
	bytes                int64
	queries              server.RunStatsJSON // summed stats blocks of the answers (traced runs)
	cache                server.CacheStats   // counter deltas over the window
}

// measure walks the operation list, from where the warm-up left it, for the
// window's length with one closed-loop client.
func (win *window) measure(ctx context.Context, in *instance, w *traffic, opts runOpts) error {
	c, cl := in.c, in.cl
	before, err := cl.stats(ctx)
	if err != nil {
		return err
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				if mb, err := c.rssMB(); err == nil {
					win.rss = append(win.rss, mb)
				}
			}
		}
	}()
	defer func() {
		close(stopRSS)
		<-rssDone
	}()

	sliceDur := time.Duration(opts.seconds / slices * float64(time.Second))
	ticks, err := c.cpuTicks()
	if err != nil {
		return err
	}
	last := mark{time.Now(), ticks, 0}
	t0, pos, ops, afterAdd := last.at, w.warmup, 0, false
	for next := 1; next <= slices; {
		if err := ctx.Err(); err != nil {
			return err
		}
		o := &w.ops[pos%len(w.ops)]
		pos++
		start := time.Now()
		err := cl.send(ctx, o)
		end := time.Now()
		ms := float64(end.Sub(start)) / 1e6
		win.attempted++
		switch {
		case err != nil:
			win.failed++
			if win.failed <= 3 {
				fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
			}
		case o.isAdd:
			ops++
			win.addLat = append(win.addLat, ms)
			in.acked = append(in.acked, o.batch)
			afterAdd = true
		default:
			ops++
			win.lat = append(win.lat, ms)
			win.bytes += int64(cl.buf.Len())
			if afterAdd {
				win.postAdd = append(win.postAdd, ms)
				afterAdd = false
			}
			if opts.trace {
				s, err := responseStats(cl.buf.Bytes())
				if err != nil {
					return err
				}
				q := &win.queries
				q.SQLQueries += s.SQLQueries
				q.Requests += s.Requests
				q.RowsScanned += s.RowsScanned
				q.SegmentsSkipped += s.SegmentsSkipped
				q.QueryTimeMs += s.QueryTimeMs
				q.ProcessTimeMs += s.ProcessTimeMs
				q.DistCalls += s.DistCalls
				q.DistAbandoned += s.DistAbandoned
			}
		}
		if k := int(end.Sub(t0) / sliceDur); k >= next {
			if ticks, err = c.cpuTicks(); err != nil {
				return err
			}
			m := mark{end, ticks, ops}
			if n := float64(m.ops - last.ops); n > 0 {
				win.rps = append(win.rps, n/m.at.Sub(last.at).Seconds())
				win.cpu = append(win.cpu, float64(m.ticks-last.ticks)*1000/clockTick/n)
			}
			last, next = m, k+1
		}
	}
	after, err := cl.stats(ctx)
	win.cache.Hits = after.Cache.Hits - before.Cache.Hits
	win.cache.Misses = after.Cache.Misses - before.Cache.Misses
	win.cache.Evictions = after.Cache.Evictions - before.Cache.Evictions
	return err
}

// endToEnd folds a window into the end-to-end metrics.
func (win *window) endToEnd(m map[string]float64) {
	m["latency_p50_ms"] = percentile(win.lat, 50)
	m["latency_p90_ms"] = percentile(win.lat, 90)
	m["throughput_rps"] = median(win.rps)
	m["server_cpu_ms_per_req"] = median(win.cpu)
	m["server_rss_p25_mb"] = percentile(win.rss, 25) // the lower quartile: see README.md, "Gated"
}

// serverLayers folds what the window saw of the server's layers from
// outside: response stats blocks and the /stats counters around the window.
func (win *window) serverLayers(m map[string]float64) {
	n := float64(len(win.lat))
	q := win.queries
	m["server.cache_hit_ratio"] = ratio(float64(win.cache.Hits), float64(win.cache.Hits+win.cache.Misses))
	m["server.cache_evictions_per_req"] = ratio(float64(win.cache.Evictions), n)
	m["server.response_kb_per_req"] = ratio(float64(win.bytes)/1000, n)
	m["server.latency_p99_ms"] = percentile(win.lat, 99)
	m["server.append_p50_ms"], m["server.post_append_query_p50_ms"] = 0, 0
	if len(win.addLat) > 0 {
		m["server.append_p50_ms"] = median(win.addLat)
		m["server.post_append_query_p50_ms"] = median(win.postAdd)
	}
	m["zexec.query_ms"] = ratio(q.QueryTimeMs, n)
	m["zexec.process_ms"] = ratio(q.ProcessTimeMs, n)
	m["zexec.sql_queries_per_req"] = ratio(float64(q.SQLQueries), n)
	m["zexec.sql_requests_per_req"] = ratio(float64(q.Requests), n)
	m["engine.rows_scanned_per_req"] = ratio(float64(q.RowsScanned), n)
	m["engine.segments_skipped_per_req"] = ratio(float64(q.SegmentsSkipped), n)
	m["vis.dist_calls_per_req"] = ratio(float64(q.DistCalls), n)
	m["vis.dist_abandoned_ratio"] = ratio(float64(q.DistAbandoned), float64(q.DistCalls))
}

// runWorkload is one run: the program is set up opts.setups times, each on
// a fresh child; the last child serves the measured window, then the
// correctness checks; when traced, the in-process pass follows.
func runWorkload(ctx context.Context, env *benchEnv, name string, opts runOpts) (*runResult, error) {
	w, err := newWorkload(name, env.seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{workload: name, metrics: map[string]float64{}}

	var (
		in     *instance
		setupS []float64
		win    window
	)
	// in is replaced per set-up; stop whichever is live on the way out.
	defer func() { in.stop() }()
	for i := 0; i < opts.setups; i++ {
		in.stop()
		t0 := time.Now()
		if in, err = setUp(ctx, env, w); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"] = median(setupS)
	if err := win.measure(ctx, in, w, opts); err != nil {
		return nil, err
	}
	win.endToEnd(res.metrics)
	res.attempted, res.failed, res.queries = win.attempted, win.failed, len(win.lat)
	res.notes = append(res.notes, fmt.Sprintf("set-ups: %.3f s", setupS),
		fmt.Sprintf("slices: throughput %.1f 1/s; server cpu %.2f ms/req", win.rps, win.cpu))

	// Correctness, outside the window and outside setup_s.
	orc, err := newOracle(env, w, in.acked)
	if err != nil {
		return nil, err
	}
	for _, i := range w.oracle {
		res.attempted++
		if err := orc.check(ctx, in.cl, &w.ops[i]); err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
		}
	}
	if len(w.batches) > 0 {
		// Durability: every append the last child acknowledged must be
		// readable after SIGKILL and a restart over the same file.
		in.stop()
		c, err := startServer(ctx, env, in.dataPath)
		if err != nil {
			return nil, err
		}
		in.c, in.cl = c, newClient(c.base)
		got, err := in.cl.servedRows(ctx)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if want := env.rows + appendRows*len(in.acked); got != want {
			lost := (want - got + appendRows - 1) / appendRows
			res.failed += max(lost, 1)
			res.problems = append(res.problems, fmt.Sprintf("durability: %d rows after restart, want %d", got, want))
		}
	}
	if opts.trace {
		win.serverLayers(res.metrics)
		in.stop() // the traced pass wants the cores and the file to itself
		if err := tracedPass(ctx, env, w, orc, in.dataPath, opts.seconds, res.metrics); err != nil {
			return nil, err
		}
		res.metrics["server.http_overhead_ms"] = res.metrics["latency_p50_ms"] - res.metrics["client.session_query_ms"]
		res.metrics["bench.datagen_s"] = env.datagenS
	}
	return res, nil
}
