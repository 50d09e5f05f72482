package engine

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// AutoStore routes each prepared plan to the best back-end for its query
// shape: it wraps a RowStore and a ColumnStore (sharded when asked) over the
// same tables and decides per query at Prepare time — the registry's
// backend=auto mode. Routing is pure dispatch: the returned plan is bound to
// the chosen sub-store, so execution, batching, and caching all behave
// exactly as if that store had been registered directly, and results are
// byte-identical whichever way a query routes (the differential fuzzer runs
// the auto store against every fixed backend).
//
// The decision table (documented in docs/ARCHITECTURE.md):
//
//	single segment or empty table        -> row     ("tiny": zone maps can't help)
//	no WHERE clause                      -> column  ("scan-agg": flat sinks win)
//	whole WHERE is one categorical  =    -> column  ("eq-dispatch": code-routed pass)
//	some conjunct zone-estimates <= 25%  -> column  ("selective-range": segments skip)
//	every conjunct is fallback-shaped    -> row     ("no-zones": column store would
//	                                                 row-test everything anyway)
//	otherwise                            -> column  ("default")
type AutoStore struct {
	planToggle
	row    *RowStore
	col    *ColumnStore // sharded when asked
	tables map[string]*dataset.Table
	stats  map[string]*plannerStats // per table, for routing estimates
	nseg   map[string]int

	mu     sync.Mutex
	routes map[string]int64
}

// NewAutoStore builds an auto-routing store over in-memory tables. nshards
// cuts the columnar half into contiguous segment ranges (<= 1 means an
// unsharded ColumnStore); the row half is always unsharded.
func NewAutoStore(nshards int, tables ...*dataset.Table) *AutoStore {
	s := &AutoStore{
		row:    NewRowStore(tables...),
		tables: make(map[string]*dataset.Table, len(tables)),
		stats:  make(map[string]*plannerStats, len(tables)),
		nseg:   make(map[string]int, len(tables)),
		routes: make(map[string]int64),
	}
	if nshards > 1 {
		s.col = NewShardedStore(nshards, tables...)
	} else {
		s.col = NewColumnStore(tables...)
	}
	for _, t := range tables {
		s.tables[t.Name] = t
		ps := newPlannerStats(t)
		ps.addZones(s.col.cols[t.Name].zones)
		s.stats[t.Name] = ps
		s.nseg[t.Name] = (t.NumRows() + SegmentSize - 1) / SegmentSize
	}
	return s
}

// Name identifies the back-end.
func (s *AutoStore) Name() string { return "autostore" }

// Table returns the named base table, or nil.
func (s *AutoStore) Table(name string) *dataset.Table { return s.tables[name] }

// route decides the sub-store for one query and names the decision.
func (s *AutoStore) route(q *minisql.Query) (DB, string) {
	ps := s.stats[q.From]
	if ps == nil {
		return s.row, "unknown-table" // Prepare will fail with the real error
	}
	if s.nseg[q.From] <= 1 {
		// At most one segment there is nothing for zone maps to skip and no
		// scan to vectorize across segments; the row store's single tight
		// loop wins on overhead.
		return s.row, "tiny"
	}
	if q.Where == nil {
		return s.col, "scan-agg"
	}
	conjs := splitConjuncts(q.Where)
	if len(conjs) == 1 {
		if cmp, ok := conjs[0].(*minisql.Compare); ok && cmp.Op == minisql.CmpEq && cmp.Val.Kind == dataset.KindString {
			if c := ps.t.Column(cmp.Col); c != nil && c.Field.Kind == dataset.KindString {
				// Single categorical equality: the column store folds these
				// into one code-routed pass per segment (colEqGroup), with
				// zone maps still skipping per plan.
				return s.col, "eq-dispatch"
			}
		}
	}
	allFallback := true
	for _, c := range conjs {
		sel, cost := scoreConjunct(ps, c)
		if cost != costFallback {
			allFallback = false
		}
		if cost <= costNumRange && sel <= 0.25 {
			// A selective typed conjunct: zone maps prove segments empty and
			// masked evaluation keeps the rest cheap.
			return s.col, "selective-range"
		}
	}
	if allFallback {
		// No conjunct has a vectorized form or a zone test; the column store
		// would run the same row predicates without ever skipping a segment.
		return s.row, "no-zones"
	}
	return s.col, "default"
}

// Prepare routes the query and prepares it on the chosen sub-store; the
// returned plan is bound to that store, so Execute and ExecuteBatch run
// there with no further indirection.
func (s *AutoStore) Prepare(q *minisql.Query) (*Plan, error) {
	db, route := s.route(q)
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	p.route = route // observability only: surfaces in EXPLAIN / trace attrs
	s.mu.Lock()
	s.routes[route]++
	s.mu.Unlock()
	return p, nil
}

// SortedRoutes returns route names ordered by count descending then name —
// the stable order /stats emits.
func SortedRoutes(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Execute runs a parsed query on the routed sub-store.
func (s *AutoStore) Execute(q *minisql.Query) (*Result, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// ExecuteSQL parses and runs SQL text.
func (s *AutoStore) ExecuteSQL(sql string) (*Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Execute(q)
}

// ExecuteBatch forwards each plan to the sub-store that prepared it — one
// sub-batch per store, so cross-plan sharing still happens within each — and
// realigns the results with the input order.
func (s *AutoStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	byDB := make(map[DB][]int)
	var order []DB
	for i, p := range plans {
		if p == nil {
			return nil, fmt.Errorf("engine: batch plan %d is nil", i)
		}
		if p.db != s.row && p.db != s.col {
			return nil, fmt.Errorf("engine: batch plan %d was prepared by a different back-end", i)
		}
		if _, ok := byDB[p.db]; !ok {
			order = append(order, p.db)
		}
		byDB[p.db] = append(byDB[p.db], i)
	}
	results := make([]*Result, len(plans))
	for _, db := range order {
		idx := byDB[db]
		sub := make([]*Plan, len(idx))
		for k, i := range idx {
			sub[k] = plans[i]
		}
		res, err := db.ExecuteBatch(ctx, sub)
		if err != nil {
			return nil, err
		}
		for k, i := range idx {
			results[i] = res[k]
		}
	}
	return results, nil
}

// Counters returns cumulative execution statistics summed over both
// sub-stores.
func (s *AutoStore) Counters() Counters {
	r, c := s.row.Counters(), s.col.Counters()
	return Counters{
		Queries:         r.Queries + c.Queries,
		RowsScanned:     r.RowsScanned + c.RowsScanned,
		SegmentsScanned: r.SegmentsScanned + c.SegmentsScanned,
		SegmentsSkipped: r.SegmentsSkipped + c.SegmentsSkipped,
		PlansPlanned:    r.PlansPlanned + c.PlansPlanned,
		PlansReordered:  r.PlansReordered + c.PlansReordered,
	}
}

// Stats reports the columnar half's table view, the counters of both
// halves, and the per-route plan totals.
func (s *AutoStore) Stats(table string) Stats {
	st := s.col.Stats(table)
	st.Counters = s.Counters()
	s.mu.Lock()
	st.Routes = maps.Clone(s.routes)
	s.mu.Unlock()
	if st.Pool == nil {
		st.Pool = &PoolStats{} // unsharded: an idle, zero-capacity pool, as /stats has always shown
	}
	return st
}

// SetParallelism bounds scan workers on both sub-stores.
func (s *AutoStore) SetParallelism(n int) {
	s.row.SetParallelism(n)
	s.col.SetParallelism(n)
}

// SetPlanning toggles the greedy conjunct planner on both sub-stores.
func (s *AutoStore) SetPlanning(on bool) {
	s.planToggle.SetPlanning(on)
	s.row.SetPlanning(on)
	s.col.SetPlanning(on)
}
