package zexec

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/vis"
	"repro/internal/zql"
)

func (ex *executor) run() (*Result, error) {
	ex.table = ex.db.Table(ex.opts.Table)
	if ex.table == nil {
		return nil, fmt.Errorf("zexec: back-end has no table %q", ex.opts.Table)
	}
	countersBefore := ex.db.Counters()
	ex.bindings = make(map[string]*binding)
	ex.groups = make(map[string]*varGroup)
	ex.colls = make(map[string]*Collection)
	ex.fetched = ex.newFetched()
	for _, r := range ex.q.Rows {
		ex.rows = append(ex.rows, &rowState{row: r})
	}
	err := ex.schedule()
	fillStats := func() {
		countersAfter := ex.db.Counters()
		ex.stats.RowsScanned = countersAfter.RowsScanned - countersBefore.RowsScanned
		ex.stats.SegmentsSkipped = countersAfter.SegmentsSkipped - countersBefore.SegmentsSkipped
		ex.stats.Process = ex.proc.snapshot()
	}
	if err != nil {
		// A run cut short by its context still reports the work it did:
		// the serving layer surfaces these partial stats with the 504.
		if ex.ctx != nil && ex.ctx.Err() != nil {
			fillStats()
			return nil, &PartialError{Err: err, Stats: ex.stats}
		}
		return nil, err
	}
	fillStats()
	return ex.assemble(), nil
}

func (ex *executor) assemble() *Result {
	res := &Result{
		Collections: ex.colls,
		Bindings:    make(map[string][]string, len(ex.bindings)),
		SQLLog:      ex.sqlLog,
		Stats:       ex.stats,
	}
	for _, name := range sortedVarNames(ex.bindings) {
		b := ex.bindings[name]
		vals := make([]string, len(b.elems))
		for i, e := range b.elems {
			vals[i] = e.display()
		}
		res.Bindings[name] = vals
	}
	for _, rs := range ex.rows {
		if rs.row.Name.Output && rs.coll != nil {
			res.Outputs = append(res.Outputs, rs.coll)
		}
	}
	return res
}

// schedule executes the query tree of Section 5.2; every optimization level
// runs it. Each round admits the ready rows the level allows, fetches the
// admitted SQL rows as one request, then runs every task whose inputs exist,
// in row order. A round that makes no progress means some row waits on a
// variable or collection that nothing left to run will define.
func (ex *executor) schedule() error {
	for {
		batch, progress, err := ex.admit()
		if err != nil {
			return err
		}
		if len(batch) > 0 {
			if err := ex.fetchRows(batch); err != nil {
				return err
			}
		}
		done := true
		for _, rs := range ex.rows {
			if rs.fetched && !rs.processed && len(ex.waitsOn(rs)) == 0 {
				if err := ex.runRowProcesses(rs); err != nil {
					return err
				}
				progress = true
			}
			done = done && rs.processed
		}
		if done {
			return nil
		}
		if !progress {
			for _, rs := range ex.rows {
				if !rs.processed {
					return fmt.Errorf("zexec: query tree is stuck: line %d waits on %s (circular or undefined dependencies)",
						rs.row.Line, strings.Join(ex.waitsOn(rs), ", "))
				}
			}
		}
	}
}

// admit picks and resolves the rows one round fetches as one request,
// preparing the ready user-input and derived rows on the way and running
// their tasks when they can: those rows fetch nothing, but may bind
// variables that later rows read. A row is ready when waitsOn is empty. The
// level only restricts what a round admits: o0 and o1 the first unfinished
// row, once every earlier row is done; o2 consecutive rows from there, up to
// and including the first SQL row that carries a task; o3 every ready row.
func (ex *executor) admit() (batch []*rowState, progress bool, err error) {
	inOrder := ex.opts.Opt < InterTask
	for _, rs := range ex.rows {
		if rs.fetched {
			if inOrder && !rs.processed {
				break
			}
			continue
		}
		if len(ex.waitsOn(rs)) > 0 {
			if inOrder {
				break
			}
			continue
		}
		sql, err := ex.prepareRow(rs)
		if err != nil {
			return nil, false, fmt.Errorf("zexec: line %d: %w", rs.row.Line, err)
		}
		progress = true
		if sql {
			batch = append(batch, rs)
		} else if len(ex.waitsOn(rs)) == 0 {
			// Nothing to fetch: run the row's tasks now, so later rows of
			// this round can read what they bind.
			if err := ex.runRowProcesses(rs); err != nil {
				return nil, false, err
			}
		}
		if ex.opts.Opt <= IntraLine || ex.opts.Opt == IntraTask && sql && len(rs.row.Process) > 0 {
			break
		}
	}
	return batch, progress, nil
}

// waitsOn lists what a row still waits on: before it is fetched, the
// unbound variables its cells read and the missing collections a derived
// row names; after, the collections and variables its tasks read.
func (ex *executor) waitsOn(rs *rowState) []string {
	var missing []string
	need := func(name string, have bool) {
		if !have && !slices.Contains(missing, name) {
			missing = append(missing, name)
		}
	}
	hasColl := func(name string) bool {
		_, ok := ex.colls[name]
		return ok
	}
	r := rs.row
	if !rs.fetched {
		for _, v := range rowVarRefs(r) {
			need(v, ex.varDefined(v))
		}
		if e := r.Name.Expr; e != nil {
			need(e.Left, hasColl(e.Left))
			if e.Right != "" {
				need(e.Right, hasColl(e.Right))
			}
		}
		return missing
	}
	for i := range r.Process {
		d := &r.Process[i]
		for _, name := range processRefs(d) {
			need(name, hasColl(name))
		}
		for _, v := range processVarRefs(d) {
			// Output variables of the row's own declarations are defined
			// as those declarations run.
			need(v, ex.varDefined(v) || declaredBySameRow(r, v))
		}
	}
	return missing
}

// prepareRow resolves an admitted row and reports whether it has SQL to
// fetch. User-input and derived rows fetch nothing: their collections are
// built here.
func (ex *executor) prepareRow(rs *rowState) (bool, error) {
	r := rs.row
	switch {
	case r.Name.UserInput:
		input, ok := ex.opts.Inputs[r.Name.Var]
		if !ok {
			return false, fmt.Errorf("no user input provided for -%s", r.Name.Var)
		}
		ex.setCollection(rs, &Collection{Vis: []*vis.Visualization{input}, combos: []point{{}}, wildcard: true})
	case r.Name.Expr != nil:
		coll, err := ex.deriveCollection(r.Name.Expr, rs)
		if err != nil {
			return false, err
		}
		// Resolve the row's cells against the derived collection so that
		// `_` bindings (y1 <- _, v2 <- 'product'._) get defined.
		if err := ex.resolveRow(rs, coll); err != nil {
			return false, err
		}
		ex.setCollection(rs, coll)
	default:
		return true, ex.resolveRow(rs, nil)
	}
	return false, nil
}

// deriveCollection evaluates a Name-column expression over collections that
// exist (the row was admitted).
func (ex *executor) deriveCollection(e *zql.NameExpr, rs *rowState) (*Collection, error) {
	left, right := ex.colls[e.Left], ex.colls[e.Right]
	switch e.Kind {
	case zql.NamePlus:
		return left.concat(right), nil
	case zql.NameMinus:
		return left.minus(right), nil
	case zql.NameIntersect:
		return left.intersect(right), nil
	case zql.NameRange:
		return left.dedup(), nil
	case zql.NameIndex:
		return left.index(e.I), nil
	case zql.NameSlice:
		return left.slice(e.I, e.J), nil
	case zql.NameAlias:
		return left, nil
	case zql.NameOrder:
		// Resolve the row first to find the `->` order markers.
		if err := ex.resolveRow(rs, left); err != nil {
			return nil, err
		}
		if len(rs.orderMarkers) == 0 {
			return nil, fmt.Errorf("f.order row has no -> order markers")
		}
		return left.reorder(rs.orderMarkers), nil
	}
	return nil, fmt.Errorf("unhandled name expression")
}

// fetchRows compiles and fetches the given resolved rows as one request,
// then builds their collections and marks them fetched. A row whose every
// visualization an earlier request fetched takes those instead (reuse.go).
func (ex *executor) fetchRows(states []*rowState) error {
	var jobs []*queryJob
	unitsByRow := make(map[*rowState][]*fetchUnit, len(states))
	for _, rs := range states {
		units, err := ex.buildUnits(rs)
		var rowJobs []*queryJob
		if err == nil {
			rowJobs, err = ex.rowJobs(rs, units)
		}
		if err != nil {
			return fmt.Errorf("zexec: line %d: %w", rs.row.Line, err)
		}
		unitsByRow[rs] = units
		if !ex.fetched.reuse(rowJobs) {
			jobs = append(jobs, rowJobs...)
		}
	}
	if ex.opts.Opt == NoOpt {
		// The naive compiler issues every query as its own request.
		for _, j := range jobs {
			if err := ex.executeBatch([]*queryJob{j}); err != nil {
				return err
			}
		}
	} else {
		if err := ex.executeBatch(jobs); err != nil {
			return err
		}
	}
	ex.fetched.remember(jobs)
	for _, rs := range states {
		ex.setCollection(rs, collectionFromUnits(unitsByRow[rs]))
	}
	return nil
}

// setCollection records a row's collection under its name variable and
// marks the row fetched.
func (ex *executor) setCollection(rs *rowState, coll *Collection) {
	rs.coll, rs.fetched = coll, true
	if rs.row.Name.Var != "" {
		ex.colls[rs.row.Name.Var] = coll
	}
}

// runRowProcesses executes the row's process declarations in order.
func (ex *executor) runRowProcesses(rs *rowState) error {
	rs.processed = true
	if len(rs.row.Process) == 0 {
		return nil
	}
	start := time.Now()
	sp := trace.FromContext(ex.ctx).StartChild("process")
	sp.SetInt("line", int64(rs.row.Line))
	before := ex.proc.snapshot()
	defer func() {
		ex.stats.ProcessTime += time.Since(start)
		after := ex.proc.snapshot()
		sp.SetInt("tuples", after.Tuples-before.Tuples)
		sp.SetInt("distCalls", after.DistCalls-before.DistCalls)
		sp.SetInt("distAbandoned", after.DistAbandoned-before.DistAbandoned)
		sp.End()
	}()
	for i := range rs.row.Process {
		if err := ex.runProcess(&rs.row.Process[i]); err != nil {
			return fmt.Errorf("zexec: line %d: %w", rs.row.Line, err)
		}
	}
	return nil
}

// declaredBySameRow reports whether a variable is declared by one of the
// row's own process declarations (earlier in the same cell).
func declaredBySameRow(r *zql.Row, name string) bool {
	for _, d := range r.Process {
		if slices.Contains(d.OutVars, name) {
			return true
		}
	}
	return false
}
