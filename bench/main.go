// Command bench is the repository's benchmark: it builds cmd/zserved and
// cmd/zpack, generates one seeded sales dataset, and drives a real zserved
// child over loopback HTTP with one closed-loop client. README.md in this
// directory describes the workloads, the metrics and how to cite them.
//
// Run from this directory's module:
//
//	go run -C bench . --workload explore_hot --seed 1 --seconds 12 --trace 0
//	go run -C bench .            # all four workloads
//	go run -C bench . --trace 1  # the same with the per-layer table
//	go run -C bench . -aa        # A/A self-check against the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// outDir, under the checkout root, holds everything the benchmark leaves
// behind: binaries, the go build's temporaries, per-run scratch data and the
// span files. It is git-ignored.
var outDir = filepath.Join("bench", "out")

// runCeiling bounds one run (set-ups, window, checks, traced pass), so a
// wedged child cannot outlive the contract's 180 s.
const runCeiling = 150 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "seeds the dataset and every request list")
		seconds      = flag.Float64("seconds", 12, "measured window per run, cut into six slices")
		trace        = flag.Int("trace", 0, "1 = also run the traced pass and report the per-layer metrics instead")
		rows         = flag.Int("rows", 1_000_000, "dataset rows (the smoke test shrinks it; BENCHMARK.json pins the default)")
		aa           = flag.Bool("aa", false, "A/A self-check: every workload in ABAB order, medians compared against BENCHMARK.json's bounds")
		aaRuns       = flag.Int("runs", 2, "with -aa: runs per side and workload, each pair on its own seed")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *rows <= 0 || *aaRuns <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		return 2
	}
	// The generator is one process on one core; the server child gets the
	// machine (see README.md, "Load shape").
	serverProcs := runtime.NumCPU()
	runtime.GOMAXPROCS(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	opts := runOpts{seconds: *seconds, setups: setupsPerRun, trace: *trace == 1}

	env, err := newEnv(ctx, serverProcs, *rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(env.runDir)

	if *aa {
		err = selfCheck(ctx, env, names, opts, *seed, *aaRuns)
	} else {
		err = runAll(ctx, env, names, opts, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("operations failed or answers were wrong")

// runAll runs each named workload once on one generated dataset, printing
// its table and, last, the contract's JSON line.
func runAll(ctx context.Context, env *benchEnv, names []string, opts runOpts, seed int64) error {
	if err := env.generate(seed); err != nil {
		return err
	}
	env.printEnvironment(opts)
	var failed bool
	for _, name := range names {
		res, err := runOnce(ctx, env, name, opts)
		if err != nil {
			return err
		}
		if err := res.print(opts); err != nil {
			return err
		}
		failed = failed || res.failed > 0
	}
	if failed {
		return errIncorrect
	}
	return nil
}

func runOnce(ctx context.Context, env *benchEnv, name string, opts runOpts) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runCeiling)
	defer cancel()
	res, err := runWorkload(ctx, env, name, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// newEnv finds the checkout, builds the program into it and makes the
// scratch directory.
func newEnv(ctx context.Context, serverProcs, rows int) (*benchEnv, error) {
	root := ""
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "zserved", "main.go")); err == nil {
			root, _ = filepath.Abs(dir)
			break
		}
	}
	if root == "" {
		return nil, errors.New("cmd/zserved not found: run from the repository checkout (go run -C bench .)")
	}
	env := &benchEnv{root: root, binDir: filepath.Join(root, outDir, "bin"), serverProcs: serverProcs, rows: rows}
	tmp := filepath.Join(root, outDir, "tmp")
	for _, dir := range []string{env.binDir, tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", env.binDir+string(filepath.Separator), "./cmd/zserved", "./cmd/zpack")
	build.Dir = root
	build.Env = append(os.Environ(), "GOTMPDIR="+tmp) // keep the build's temporaries inside the checkout
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/zserved and cmd/zpack: %v\n%s", err, out)
	}
	var err error
	env.runDir, err = os.MkdirTemp(filepath.Join(root, outDir), "run-")
	return env, err
}

// generate writes the seeded dataset as the CSV every workload of this
// invocation starts from. Generation is benchmark code: it is reported as
// bench.datagen_s and is no part of setup_s.
func (env *benchEnv) generate(seed int64) error {
	t0 := time.Now()
	env.seed = seed
	env.csvPath = filepath.Join(env.runDir, datasetName+".csv")
	f, err := os.Create(env.csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := dataset.WriteCSV(workload.Sales(salesConfig(env.rows, seed)), bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	env.csvBytes = st.Size()
	env.datagenS = time.Since(t0).Seconds()
	return f.Close()
}

// commit reads the checked-out commit from .git without running git, which
// would search the directories above a checkout that is no repository.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

// printEnvironment states what the numbers were measured on and with.
func (env *benchEnv) printEnvironment(opts runOpts) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("environment: nproc=%d server_gomaxprocs=%d generator_gomaxprocs=1 go=%s kernel=%s commit=%s\n",
		runtime.NumCPU(), env.serverProcs, runtime.Version(), strings.TrimSpace(string(kernel)), commit(env.root))
	fmt.Printf("load: clients=1 loop=closed window=%gs slices=%d setups=%d seed=%d rows=%d cache=%d gogc=default\n",
		opts.seconds, slices, opts.setups, env.seed, env.rows, cacheEntries)
	fmt.Printf("flush: zpack Flush fsyncs on every append; page cache warm, so latencies are this sandbox's, not a device's\n")
	fmt.Printf("bench.datagen_s %.3f s (%d CSV bytes)\n", env.datagenS, env.csvBytes)
}

// outMetric is one entry of the contract's metrics object.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run as a table and then as the contract's JSON line:
// the end-to-end metrics, or the per-layer ones when traced. The speed
// metrics are printed on every run, gated or not.
func (r *runResult) print(opts runOpts) error {
	defs, aside := endToEndDefs, speedDefs
	if opts.trace {
		defs, aside = perLayerDefs, endToEndDefs
	}
	fmt.Printf("\n%s: %d latency samples; operations attempted %d, failed %d\n", r.workload, r.queries, r.attempted, r.failed)
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]outMetric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = outMetric{v, d.Unit}
	}
	for _, d := range aside {
		fmt.Printf("  %-34s %14.4f %s  (not in this run's JSON line)\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	for _, n := range r.notes {
		fmt.Println(" ", n)
	}
	for _, p := range r.problems {
		fmt.Println("  PROBLEM:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
