// Package client is the embedding API of zenvisage — the analog of the
// paper's client library ("users can easily embed ZQL queries into other
// computation", Section 3.1). A Session wraps a dataset, the column executor
// (or any engine.DB handed to OpenDB), and execution options behind a small
// surface: Query, QueryWithInputs, Recommend. It also records the Metadata &
// History component of the architecture diagram (Figure 6.1): every executed
// query with its statistics.
package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/recommend"
	"repro/internal/trace"
	"repro/internal/vis"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// Session is a connection to one dataset. A Session is safe for concurrent
// use as long as its back-end is; the query server shares one Session per
// dataset across all requests.
type Session struct {
	mu        sync.Mutex
	db        engine.DB
	table     string
	opt       zexec.OptLevel
	metric    vis.Metric
	seed      int64
	pworkers  int
	histLimit int
	history   []HistoryEntry
}

// HistoryEntry records one executed query.
type HistoryEntry struct {
	When    time.Time
	ZQL     string
	Err     string // "" on success
	Stats   zexec.Stats
	Outputs int
}

// DefaultHistoryLimit bounds the recorded query history when no explicit
// limit is configured. An unbounded history is a slow leak under sustained
// traffic — a server session sees millions of queries.
const DefaultHistoryLimit = 256

// Option configures a Session.
type Option func(*config) error

type config struct {
	opt       zexec.OptLevel
	metric    vis.Metric
	seed      int64
	pworkers  int
	histLimit int
}

// WithOptLevel sets the SQL batching level (default Inter-Task, the
// strongest).
func WithOptLevel(level zexec.OptLevel) Option {
	return func(c *config) error {
		c.opt = level
		return nil
	}
}

// WithMetric sets the distance metric D by name: euclidean, dtw, kl, emd
// (raw- prefix disables normalization).
func WithMetric(name string) Option {
	return func(c *config) error {
		m, err := vis.MetricByName(name)
		if err != nil {
			return err
		}
		c.metric = m
		return nil
	}
}

// WithSeed makes R (k-means) and recommendations deterministic.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithProcessParallelism bounds the process-phase worker goroutines per
// query (0 = automatic: sequential at NoOpt, GOMAXPROCS otherwise; 1 forces
// sequential scoring). Results are identical at every setting; the knob
// trades per-query latency against CPU share — a server packing many
// concurrent sessions onto one machine may want 1.
func WithProcessParallelism(n int) Option {
	return func(c *config) error {
		c.pworkers = n
		return nil
	}
}

// WithHistoryLimit bounds the recorded query history to the most recent n
// entries (default DefaultHistoryLimit); n < 0 keeps the history unbounded.
func WithHistoryLimit(n int) Option {
	return func(c *config) error {
		c.histLimit = n
		return nil
	}
}

func newConfig(opts []Option) (config, error) {
	cfg := config{opt: zexec.InterTask, metric: vis.DefaultMetric, seed: 1, histLimit: DefaultHistoryLimit}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Open starts a session over an in-memory table, served by the column
// executor. OpenDB takes any other engine.DB, such as the paper's row-store
// baseline.
func Open(t *dataset.Table, opts ...Option) (*Session, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Session{db: engine.NewColumnStore(t), table: t.Name, opt: cfg.opt, metric: cfg.metric, seed: cfg.seed, pworkers: cfg.pworkers, histLimit: cfg.histLimit}, nil
}

// OpenDB starts a session over an existing back-end — the path the query
// server uses to share one store (wrapped in its cache and coalescer) across
// every request.
func OpenDB(db engine.DB, table string, opts ...Option) (*Session, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if db.Table(table) == nil {
		return nil, fmt.Errorf("client: back-end has no table %q", table)
	}
	return &Session{db: db, table: table, opt: cfg.opt, metric: cfg.metric, seed: cfg.seed, pworkers: cfg.pworkers, histLimit: cfg.histLimit}, nil
}

// OpenCSV starts a session over a CSV file.
func OpenCSV(name, path string, opts ...Option) (*Session, error) {
	t, err := dataset.ReadCSVFile(name, path)
	if err != nil {
		return nil, err
	}
	return Open(t, opts...)
}

// OpenZpack starts a session over a persistent .zpack dataset (see
// docs/FORMAT.md). The file opens by its footer alone and segments load
// lazily as queries touch them, so opening is cheap regardless of data
// size. The back-end is the column store, the executor that drives lazy,
// zone-map-skipped loading.
func OpenZpack(path string, opts ...Option) (*Session, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	r, err := zpack.Open(path)
	if err != nil {
		return nil, err
	}
	db := engine.NewColumnStoreFromSource(r)
	return &Session{db: db, table: r.Name(), opt: cfg.opt, metric: cfg.metric, seed: cfg.seed, pworkers: cfg.pworkers, histLimit: cfg.histLimit}, nil
}

// Table returns the session's table name.
func (s *Session) Table() string { return s.table }

// Query parses and executes a ZQL query.
func (s *Session) Query(src string) (*zexec.Result, error) {
	return s.QueryWithInputs(src, nil)
}

// QueryWithInputs executes a ZQL query supplying user-drawn visualizations
// for its -f rows, keyed by name variable, as y-value series.
func (s *Session) QueryWithInputs(src string, inputs map[string][]float64) (*zexec.Result, error) {
	return s.QueryAt(src, inputs, s.opt)
}

// QueryAt executes a ZQL query at an explicit optimization level, overriding
// the session default — the query server uses this for per-request levels.
func (s *Session) QueryAt(src string, inputs map[string][]float64, opt zexec.OptLevel) (*zexec.Result, error) {
	return s.QueryContext(context.Background(), src, inputs, opt)
}

// QueryContext executes a ZQL query under a context at an explicit
// optimization level. A deadline or cancellation stops the execution at the
// engine's next cancellation point (segment / scan-block boundary, or
// between process-phase tuples); the returned error then wraps ctx.Err(),
// and a *zexec.PartialError carries the stats accumulated before the cut.
func (s *Session) QueryContext(ctx context.Context, src string, inputs map[string][]float64, opt zexec.OptLevel) (*zexec.Result, error) {
	return s.queryContext(ctx, src, inputs, opt, false)
}

// PlanContext is QueryContext in EXPLAIN plan mode: the query is parsed,
// resolved, and prepared — every SQL statement rendered, every plan's
// conjunct order decided, all traced when the context carries a
// span — but nothing executes against the data. The result's outputs are
// empty visualizations; its SQLLog is the real one.
func (s *Session) PlanContext(ctx context.Context, src string, inputs map[string][]float64, opt zexec.OptLevel) (*zexec.Result, error) {
	return s.queryContext(ctx, src, inputs, opt, true)
}

// ExplainContext runs the query (analyze=true) or only plans it
// (analyze=false) under a fresh trace when the context does not already
// carry one, and returns the rendered span tree alongside the result. When
// the context already has a span — the server's middleware owns the trace
// there — the tree is nil and the caller renders from its own trace.
func (s *Session) ExplainContext(ctx context.Context, src string, inputs map[string][]float64, opt zexec.OptLevel, analyze bool) (*zexec.Result, *trace.Tree, error) {
	var tr *trace.Trace
	if trace.FromContext(ctx) == nil {
		tr = trace.New("request", "")
		ctx = trace.WithSpan(ctx, tr.Root)
	}
	res, err := s.queryContext(ctx, src, inputs, opt, !analyze)
	if tr == nil {
		return res, nil, err
	}
	tr.Root.End()
	return res, tr.Tree(), err
}

func (s *Session) queryContext(ctx context.Context, src string, inputs map[string][]float64, opt zexec.OptLevel, planOnly bool) (*zexec.Result, error) {
	q, err := zql.Parse(src)
	if err != nil {
		s.record(src, nil, err)
		return nil, err
	}
	opts := zexec.Options{Table: s.table, Opt: opt, Metric: s.metric, Seed: s.seed, ProcessParallelism: s.pworkers, PlanOnly: planOnly}
	if len(inputs) > 0 {
		opts.Inputs = make(map[string]*vis.Visualization, len(inputs))
		for name, ys := range inputs {
			opts.Inputs[name] = vis.FromFloats(ys)
		}
	}
	res, err := zexec.RunContext(ctx, q, s.db, opts)
	s.record(src, res, err)
	return res, err
}

// Recommend returns up to k diverse trend recommendations for the given
// axes, the recommendation-panel request of the front-end.
func (s *Session) Recommend(x, y, z string, k int) ([]recommend.Recommendation, error) {
	return recommend.Diverse(s.db, recommend.Request{
		Table: s.table, X: x, Y: y, Z: z, K: k, Seed: s.seed,
	}, s.metric)
}

// HistoryLen returns the number of recorded history entries without copying
// the log.
func (s *Session) HistoryLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history)
}

// History returns the recorded query log, newest last.
func (s *Session) History() []HistoryEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HistoryEntry, len(s.history))
	copy(out, s.history)
	return out
}

func (s *Session) record(src string, res *zexec.Result, err error) {
	e := HistoryEntry{When: time.Now(), ZQL: src}
	if err != nil {
		e.Err = err.Error()
	}
	if res != nil {
		e.Stats = res.Stats
		e.Outputs = len(res.Outputs)
	}
	s.mu.Lock()
	s.history = append(s.history, e)
	// Drop the oldest entry when over the limit; the history grows by one per
	// query, so a single shift keeps it exactly at the cap.
	if s.histLimit >= 0 && len(s.history) > s.histLimit {
		n := copy(s.history, s.history[len(s.history)-s.histLimit:])
		for i := n; i < len(s.history); i++ {
			s.history[i] = HistoryEntry{} // release references in the tail
		}
		s.history = s.history[:n]
	}
	s.mu.Unlock()
}

// Describe summarizes the session's table: name, rows, and columns with
// kinds — the building-blocks panel's metadata.
func (s *Session) Describe() string {
	t := s.db.Table(s.table)
	if t == nil {
		return "(no table)"
	}
	out := fmt.Sprintf("%s: %d rows\n", t.Name, t.NumRows())
	for _, c := range t.Columns() {
		out += fmt.Sprintf("  %-20s %s\n", c.Field.Name, c.Field.Kind)
	}
	return out
}
