// Command zserved is the zenvisage query server: the HTTP JSON API between a
// browser front-end and the ZQL engine (the serving layer of the paper's
// Figure 6.1 architecture). It loads one or more named datasets — persistent
// .zpack files, CSV files, or built-in demo generators — and serves
// concurrent /query, /spec, and /recommend requests over them, coalescing
// concurrent work into shared-scan batches and caching results keyed by
// canonical plan SQL. Every dataset is served from a zpack file, its
// segments loaded lazily: a .zpack as it is, a CSV or a demo table from a
// spill, an unnamed file in the CSV's directory or in os.TempDir(). Datasets
// served from .zpack files start warm (footer only, no CSV parse) and accept
// POST /datasets/{name}/append.
//
// Usage:
//
//	zserved -demo sales
//	zserved -data flights=flights.csv -data sales=sales.csv
//	zserved -data warehouse/            # every *.zpack in the directory
//	zserved -data sales=sales.zpack -cache 4096
//
// Then:
//
//	curl localhost:8421/datasets
//	curl -X POST localhost:8421/query -d '{"dataset":"sales","zql":"..."}'
//	curl localhost:8421/stats
//	curl localhost:8421/metrics     # Prometheus text format
//	curl localhost:8421/readyz      # readiness (healthz is liveness)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/compact"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/zexec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zserved: ")
	var dataSpecs []string
	var (
		addr  = flag.String("addr", ":8421", "listen address")
		demos = flag.String("demo", "", "comma-separated built-in demo datasets: sales, airline, census, housing")
		// -backend stays only because the benchmark module passes it; the
		// next change to the benchmark deletes it.
		backend   = flag.String("backend", "column", "name /datasets reports for the one executor served: column, or auto (another name for it); the row and bitmap baselines run in zenvisage -backend")
		cache     = flag.Int("cache", server.DefaultCacheEntries, "result cache entries per dataset, each adding 24 KiB to its byte budget; a tenth of both holds results on probation until their first hit, a result over 24 KiB only until the next result arrives (0 means the default, 1024; negative disables)")
		optName   = flag.String("opt", "intertask", "default optimization level: noopt, intraline, intratask, intertask (or o0..o3)")
		metric    = flag.String("metric", "euclidean", "distance metric D: euclidean, dtw, kl, emd (raw- prefix skips normalization)")
		seed      = flag.Int64("seed", 42, "seed for R (k-means) determinism")
		demoRows  = flag.Int("demo-rows", 50000, "row count for the demo generators")
		grace     = flag.Duration("grace", 10*time.Second, "graceful shutdown drain window for in-flight queries")
		timeout   = flag.Duration("timeout", 0, "default per-request execution deadline (0 = none; X-Timeout header overrides per request)")
		maxQueue  = flag.Int("max-queue", server.DefaultMaxQueue, "admission queue bound per dataset before 429 shedding (negative = unbounded)")
		accessLog = flag.Bool("access-log", false, "write one JSON access-log line per request to stderr")
		slowMs    = flag.Int("slow-query-ms", int(server.DefaultSlowQueryThreshold/time.Millisecond), "capture requests at least this slow into GET /debug/slowlog (negative disables capture; tracing itself stays on)")
		slowKeep  = flag.Int("slow-query-keep", server.DefaultSlowLogKeep, "slow-query log ring size")
		debugAddr = flag.String("debug-addr", "", "listen address for the net/http/pprof debug server (empty = disabled); keep it off the public interface")

		compactEvery = flag.Duration("compact", 0, "background compaction sweep interval for zpack datasets (0 disables); each sweep re-clusters datasets whose appended tails exceed -compact-threshold")
		compactThr   = flag.Int("compact-threshold", 1, "unsorted tail segments that trigger a background compaction")
		compactCols  = flag.String("compact-cols", "", "comma-separated cluster columns for background compaction (default: pick per dataset from skip provenance + dictionary stats)")
	)
	flag.Func("data", "dataset to serve: name=path.csv, name=path.zpack, or a directory of *.zpack files (repeatable)", func(v string) error {
		dataSpecs = append(dataSpecs, v)
		return nil
	})
	flag.Parse()
	if *debugAddr == "" {
		// The pprof handlers are the only reader of heap-profile samples:
		// without them, sampling would cost memory and time for nothing.
		runtime.MemProfileRate = 0
	}

	// Validate the level up front so a typo fails at startup, not at the
	// first registration.
	if _, err := zexec.OptLevelByName(*optName); err != nil {
		log.Fatal(err)
	}
	cfg := server.Config{
		Backend:      *backend,
		Opt:          *optName,
		Metric:       *metric,
		Seed:         *seed,
		CacheEntries: *cache,
		MaxQueue:     *maxQueue,
	}

	reg := server.NewRegistry()
	for _, spec := range dataSpecs {
		if err := loadDataSpec(reg, spec, cfg); err != nil {
			log.Fatal(err)
		}
	}
	if *demos != "" {
		for _, name := range strings.Split(*demos, ",") {
			t, err := demoTable(strings.TrimSpace(name), *demoRows)
			if err != nil {
				log.Fatal(err)
			}
			d, err := reg.AddTable(t, cfg)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded demo %s: %d rows (%s backend)", d.Name(), d.Table().NumRows(), d.Backend())
		}
	}
	if len(reg.List()) == 0 {
		log.Fatal("nothing to serve: provide -data name=path.csv and/or -demo names")
	}
	// Every dataset is loaded; /readyz may pass from here on.
	reg.SetReady(true)
	// Hand what loading freed (decoded CSV chunks, spill buffers) back to the
	// OS: it collects first, so an idle server holds only what it serves.
	debug.FreeOSMemory()

	if *compactEvery > 0 {
		var cols []string
		if *compactCols != "" {
			for _, c := range strings.Split(*compactCols, ",") {
				cols = append(cols, strings.TrimSpace(c))
			}
		}
		cctx, cancelCompact := context.WithCancel(context.Background())
		defer cancelCompact()
		go server.NewCompactor(reg, server.CompactorConfig{
			Interval:  *compactEvery,
			Threshold: *compactThr,
			Cols:      cols,
			Logf:      log.Printf,
		}).Run(cctx)
		log.Printf("background compactor: sweep every %s, threshold %d unsorted segment(s)", *compactEvery, *compactThr)
	}

	var srvOpts []server.Option
	if *timeout > 0 {
		srvOpts = append(srvOpts, server.WithTimeout(*timeout))
	}
	if *accessLog {
		srvOpts = append(srvOpts, server.WithAccessLog(os.Stderr))
	}
	slowThreshold := time.Duration(*slowMs) * time.Millisecond
	if *slowMs < 0 {
		slowThreshold = -1
	}
	srvOpts = append(srvOpts, server.WithSlowQueryLog(slowThreshold, *slowKeep))
	srv := &http.Server{
		Addr:         *addr,
		Handler:      server.New(reg, srvOpts...),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // big result sets over slow links
		IdleTimeout:  2 * time.Minute,
	}
	if *debugAddr != "" {
		// pprof gets its own listener so profiling endpoints never share the
		// public address; the explicit mux carries ONLY the pprof handlers.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof debug server on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Printf("pprof debug server: %v", err)
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("zserved %s (%s) serving %d dataset(s) on %s", server.Version(), server.GoVersion(), len(reg.List()), *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		// Graceful shutdown: stop accepting connections, let in-flight
		// queries drain for up to -grace, then exit. With zpack-backed
		// datasets every Flush already synced, so a restart over the same
		// -data directory comes back warm.
		log.Printf("%v: draining in-flight queries (up to %s)", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("drained; bye")
	}
}

// loadDataSpec registers one -data value: "name=path.csv", "name=path.zpack",
// or a bare directory whose *.zpack files are each served under their base
// name.
func loadDataSpec(reg *server.Registry, spec string, cfg server.Config) error {
	t0 := time.Now()
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		st, err := os.Stat(spec)
		if err != nil {
			return fmt.Errorf("bad -data %q (want name=path.csv, name=path.zpack, or a directory): %w", spec, err)
		}
		if !st.IsDir() {
			return fmt.Errorf("bad -data %q: bare paths must be directories of *.zpack files; use name=%s for a single file", spec, spec)
		}
		matches, err := filepath.Glob(filepath.Join(spec, "*.zpack"))
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			return fmt.Errorf("-data %q: no *.zpack files found", spec)
		}
		for _, m := range matches {
			if err := loadDataSpec(reg, strings.TrimSuffix(filepath.Base(m), ".zpack")+"="+m, cfg); err != nil {
				return err
			}
		}
		return nil
	}
	if name == "" || path == "" {
		return fmt.Errorf("bad -data %q (want name=path.csv or name=path.zpack)", spec)
	}
	if strings.HasSuffix(path, ".zpack") {
		// A compactor that died mid-write may have left a half-written
		// generation next to the file; it never matches the *.zpack glob, so
		// it was never served — just reclaim the space.
		if removed, err := compact.SweepTmp(filepath.Dir(path)); err == nil {
			for _, tmp := range removed {
				log.Printf("removed stale compaction temp %s", tmp)
			}
		}
		d, err := reg.AddZpack(name, path, cfg)
		if err != nil {
			return err
		}
		log.Printf("loaded %s: %d rows, %d table bytes, %d segments from %s (%s backend, warm, appendable) in %.2fs",
			d.Name(), d.Table().NumRows(), d.TableBytes(), d.Segments(), path, d.Backend(), time.Since(t0).Seconds())
		return nil
	}
	d, err := reg.LoadCSV(name, path, cfg)
	if err != nil {
		return err
	}
	log.Printf("loaded %s: %d rows, %d table bytes from %s (%s backend, spilled) in %.2fs",
		d.Name(), d.Table().NumRows(), d.TableBytes(), path, d.Backend(), time.Since(t0).Seconds())
	return nil
}

// demoTable builds one of the built-in synthetic datasets at roughly the
// requested size.
func demoTable(name string, rows int) (*dataset.Table, error) {
	switch name {
	case "sales":
		return workload.Sales(workload.SalesConfig{Rows: rows, Products: 24, Years: 10, Cities: 10, Seed: 1}), nil
	case "airline":
		return workload.Airline(workload.AirlineConfig{Rows: rows, Airports: 20, Years: 10, Seed: 2}), nil
	case "census":
		return workload.Census(workload.CensusConfig{Rows: rows, Seed: 3}), nil
	case "housing":
		// Housing emits one row per city per month: size by city count.
		cities := rows / (12 * 12)
		if cities < 10 {
			cities = 10
		}
		return workload.Housing(workload.HousingConfig{Cities: cities, States: 10, Years: 12, Seed: 4}), nil
	}
	return nil, fmt.Errorf("unknown demo %q (want sales, airline, census, or housing)", name)
}
