// Package zexec compiles and executes ZQL queries against an engine.DB
// back-end, implementing Chapter 5 of the paper: the naive per-visualization
// compiler plus the three external optimization levels (intra-line batching,
// intra-task pipelining, inter-task query-tree batching).
//
// Every level runs one query tree. Each round admits the ready rows — every
// variable a row reads is bound, every collection a derived row names is
// built — fetches the admitted SQL rows as one request, then runs every task
// whose inputs exist, in row order; a user-input or derived row fetches
// nothing, so its tasks run as soon as it is admitted and rows later in the
// round can read their outputs. The level only decides which ready rows a
// round admits (see OptLevel). A ready row that fails to resolve fails the
// query with "zexec: line N: <cause>"; a round that makes no progress fails
// it with one "query tree is stuck" error naming the first waiting row and
// what it waits on.
//
// Execution model: every ZQL row denotes a visual component — an ordered
// collection of visualizations generated by iterating its axis variables in
// column order (X, Y, Z1..Zn, Viz). The compiler turns each collection into
// minisql.Query ASTs (one per visualization at NoOpt; batched per row and
// per request at higher levels), prepares them with engine.DB.Prepare, and
// runs each request batch through engine.DB.ExecuteBatch so the back-end
// shares work across the batch — shared scans on the row store, shared
// conjunct bitmaps on the bitmap store, shared segment selections on the
// column store.
// No SQL text is parsed on this path: Result.SQLLog is rendered from the
// ASTs — the canonical SQL spelling of the Section 5.1 translation. After
// the fetch it materializes the visualizations, then runs the Process tasks
// (argmin/argmax/argany with T and D, and R) in-memory.
//
// The process phase mirrors the fetch phase's optimization story: at NoOpt
// tuples are scored sequentially in declaration order (the differential
// oracle), while every higher level fans tuple evaluation across a worker
// pool and routes argmin/argmax [k=...] searches through a bounded heap
// whose running k-th-best score feeds the early-abandoning distance kernels
// of internal/vis. Both are result-preserving: output is byte-identical at
// every level, which the golden-corpus tests pin. Stats.Process reports the
// work done (tuples scored, distance calls, calls abandoned).
package zexec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/vis"
)

// OptLevel selects how aggressively SQL queries are batched (Section 5.2).
// Levels are cumulative: each includes the previous. Every level runs the
// same query tree; the level decides which ready rows one round admits, and
// so which rows' SQL shares a request.
type OptLevel int

// Optimization levels.
const (
	// NoOpt issues one SQL query per visualization, each its own request —
	// the naive compiler of Section 5.1. A round admits the first
	// unfinished row, once every earlier row is done.
	NoOpt OptLevel = iota
	// IntraLine batches each row's visualizations into one SQL query per
	// distinct (x-attribute, binning) shape, using IN-lists for Z variables
	// and multi-aggregate selects for Y variables. A round admits rows as
	// at NoOpt.
	IntraLine
	// IntraTask additionally admits consecutive ready rows from the first
	// unfinished one, up to and including the first SQL row that carries a
	// task, and fetches their queries as one request, executed concurrently.
	IntraTask
	// InterTask additionally admits every ready row — every row whose
	// visual component is independent of unfinished tasks — regardless of
	// row order.
	InterTask
)

// String names the level the way the paper's figures do.
func (o OptLevel) String() string {
	switch o {
	case NoOpt:
		return "NoOpT"
	case IntraLine:
		return "Intra-Line"
	case IntraTask:
		return "Intra-Task"
	case InterTask:
		return "Inter-Task"
	}
	return "?"
}

// OptLevelByName resolves a level from its flag/API spelling: "noopt",
// "intraline", "intratask", "intertask", or the short forms "o0".."o3".
// The level also gates the process phase: O0 keeps tuple evaluation
// sequential and unpruned — the differential oracle the parallel executor is
// tested against — while every higher level fans tuples across up to
// GOMAXPROCS workers and prunes top-k searches (see Options.ProcessNoPrune).
func OptLevelByName(name string) (OptLevel, error) {
	switch name {
	case "noopt", "o0":
		return NoOpt, nil
	case "intraline", "o1":
		return IntraLine, nil
	case "intratask", "o2":
		return IntraTask, nil
	case "intertask", "o3":
		return InterTask, nil
	}
	return 0, fmt.Errorf("zexec: unknown optimization level %q (want noopt, intraline, intratask, intertask, or o0..o3)", name)
}

// UserFunc is a user-defined objective function for the Process column
// (Section 3.8: "ZQL supports user-defined functions ... treated as black
// boxes"). It receives the visualizations the call's name-variable arguments
// resolve to under the current loop assignment.
type UserFunc func(args []*vis.Visualization) float64

// Options configures an execution.
type Options struct {
	// Table is the base table name all rows query.
	Table string
	// Opt is the batching level; the zero value is NoOpt, the naive
	// one-query-per-visualization compiler of Section 5.1.
	Opt OptLevel
	// Metric is the distance D; defaults to z-normalized Euclidean.
	Metric vis.Metric
	// Seed makes R (k-means) deterministic.
	Seed int64
	// Inputs provides the user-drawn visualizations for -f rows, keyed by
	// name variable.
	Inputs map[string]*vis.Visualization
	// UserFuncs registers user-defined process objectives by name. They may
	// be called from several workers at once and must be safe for
	// concurrent use (pure functions are).
	UserFuncs map[string]UserFunc
	// ProcessNoPrune disables the top-k bounded heap and early-abandoning
	// distance kernels at optimized levels. Pruning never changes results
	// (the golden corpus pins byte-identical output across levels); the
	// switch exists to measure its effect. At NoOpt pruning is always off.
	ProcessNoPrune bool
	// PlanOnly runs EXPLAIN's plan mode: the full pipeline executes —
	// resolution, unit building, SQL generation, Prepare (so each plan's
	// SQL and conjuncts are traced) — but no data moves: ExecuteBatch is
	// never called, fetched visualizations are empty, and process tasks bind
	// empty outputs.
	PlanOnly bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Metric.Fn == nil {
		out.Metric = vis.DefaultMetric
	}
	return out
}

// Stats reports what an execution cost.
type Stats struct {
	// SQLQueries is the number of SQL statements executed.
	SQLQueries int
	// Requests is the number of batched round trips to the database
	// (the paper's "SQL requests" axis in Figures 7.1 and 7.2).
	Requests int
	// QueryTime is wall time spent executing SQL.
	QueryTime time.Duration
	// ProcessTime is wall time spent in task processors.
	ProcessTime time.Duration
	// RowsScanned is the number of table rows the back-end visited for this
	// execution — the counter that makes the shared-scan saving of
	// ExecuteBatch visible (a batch of n queries served from one scan
	// advances it by one table length, not n). It is measured as a delta of
	// the back-end's cumulative counters, so it is only attributable to this
	// run when the run has the DB to itself.
	RowsScanned int64
	// SegmentsSkipped is the number of (plan, segment) pairs the column
	// store's zone maps proved empty — rows never visited at all. Always 0
	// on the row and bitmap stores. Measured as a counter delta, like
	// RowsScanned.
	SegmentsSkipped int64
	// Process counts the work of the process phase; ProcessTime is its wall
	// time.
	Process ProcessStats
}

// ProcessStats counts the work of the process phase — the distance and trend
// loops behind similarity, representative, and outlier tasks — and makes the
// effect of parallel evaluation and top-k pruning visible.
type ProcessStats struct {
	// Tuples is the number of candidate variable assignments scored across
	// all process declarations.
	Tuples int64
	// DistCalls is the number of D() distance evaluations, including the
	// inner loops of two-level tasks like outlier search.
	DistCalls int64
	// DistAbandoned is how many of those the early-abandoning kernels cut
	// short because a partial sum already exceeded the running top-k bound.
	// Abandoned calls never change results; a high ratio is pruning working.
	DistAbandoned int64
}

// Result is the output of executing a ZQL query.
type Result struct {
	// Outputs holds the collections of the rows marked '*', in row order.
	Outputs []*Collection
	// Collections maps every name variable to its collection.
	Collections map[string]*Collection
	// Bindings maps every axis variable to its final ordered elements,
	// rendered as strings (attribute names for axis vars, values for Z vars).
	Bindings map[string][]string
	// SQLLog records every SQL statement issued, in execution order — the
	// output of the ZQL-to-SQL translation of Section 5.1, made inspectable.
	SQLLog []string
	// Stats reports execution cost.
	Stats Stats
}

// Run parses nothing: it executes an already-parsed ZQL query against db.
func Run(q *Query, db engine.DB, opts Options) (*Result, error) {
	return RunContext(context.Background(), q, db, opts)
}

// RunContext executes an already-parsed ZQL query against db under a
// context. Cancellation is observed at the back-end's batch cancellation
// points (segment / scan-block boundaries) and between process-phase tuples;
// a run cut short by its context returns a *PartialError carrying the stats
// accumulated so far, so callers can report how much work a timed-out
// request performed.
func RunContext(ctx context.Context, q *Query, db engine.DB, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.withDefaults()
	ex := &executor{q: q, db: db, opts: o, ctx: ctx}
	return ex.run()
}

// PartialError is the error of a run cut short by its context: the cause
// (context.DeadlineExceeded or context.Canceled, wrapped in the failing
// stage's annotation) plus the execution stats accumulated before the cut.
type PartialError struct {
	Err   error
	Stats Stats
}

func (e *PartialError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause so errors.Is(err, context.DeadlineExceeded) works.
func (e *PartialError) Unwrap() error { return e.Err }

// Query aliases the zql AST so callers import one package for execution.
type Query = zqlQuery
