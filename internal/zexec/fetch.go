package zexec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/trace"
	"repro/internal/vis"
	"repro/internal/zql"
)

// fetchUnit is one visualization to retrieve for a row.
type fetchUnit struct {
	rs     *rowState
	order  int // position within the row's combo iteration
	assign point
	xattrs []string // ≥2 for composite × axes
	yattrs []string // ≥2 for composite + axes
	slices []vis.Slice
	vd     zql.VizDef
	out    *vis.Visualization // filled by the splitter
}

// buildUnits enumerates a resolved row's visualizations, one per point of
// its dimensions' space. The units are carved from one array and their
// slices from a shared, growing one; consecutive units naming the same X or
// Y attribute share its split (nothing writes one).
func (ex *executor) buildUnits(rs *rowState) ([]*fetchUnit, error) {
	pts := newSpace(nil, rs.dims).points()
	units, out := make([]fetchUnit, len(pts)), make([]*fetchUnit, len(pts))
	var slab []vis.Slice
	var xval, yval string
	var xattrs, yattrs []string
	for i, p := range pts {
		u := &units[i]
		u.rs, u.order, u.assign = rs, i, p
		start := len(slab)
		for d, tuples := range p.sp.dims {
			for _, e := range tuples[p.at[d]] {
				switch e.kind {
				case elemX:
					if xattrs == nil || e.val != xval {
						xval, xattrs = e.val, splitComposite(e.val)
					}
					u.xattrs = xattrs
				case elemY:
					if yattrs == nil || e.val != yval {
						yval, yattrs = e.val, strings.Split(e.val, "+")
					}
					u.yattrs = yattrs
				case elemZ:
					slab = append(slab, vis.Slice{Attr: e.attr, Value: e.val})
				case elemViz:
					u.vd = *e.viz
				}
			}
		}
		if len(slab) > start {
			u.slices = slab[start:len(slab):len(slab)]
		}
		if len(u.xattrs) == 0 || len(u.yattrs) == 0 {
			return nil, fmt.Errorf("row needs both X and Y axes")
		}
		out[i] = u
	}
	return out, nil
}

func splitComposite(attr string) []string {
	if strings.Contains(attr, "×") {
		return strings.Split(attr, "×")
	}
	return []string{attr}
}

// queryJob is one logical query feeding one or more units. The query is a
// minisql AST built directly by the compiler — no SQL text is parsed on the
// hot path; the statement is only rendered to SQL for the inspectable log.
type queryJob struct {
	q     *minisql.Query
	units []*fetchUnit
	cons  string // the row's expanded constraint text
	// Splitting metadata:
	xCols   []string
	zCols   []string
	yAlias  map[string]string // y attribute -> result column alias
	raw     bool              // scatter: no aggregation
	rawYCol string
}

// defaultAgg is the rule-of-thumb aggregate when the Viz column is blank,
// matching trend charts over raw measures.
const defaultAgg = "avg"

// agg resolution: explicit y=agg('f') wins; scatterplots default to raw
// points; everything else uses the rule-of-thumb default aggregate.
func (ex *executor) aggFor(vd zql.VizDef) (agg string, raw bool) {
	if vd.YAgg != "" {
		return vd.YAgg, false
	}
	if vd.Type == "scatterplot" {
		return "", true
	}
	return defaultAgg, false
}

// unitQuery builds the naive one-query-per-visualization plan of Section 5.1
// as a minisql AST.
func (ex *executor) unitQuery(u *fetchUnit, constraints minisql.Expr) (*queryJob, error) {
	agg, raw := ex.aggFor(u.vd)
	q := &minisql.Query{From: ex.table.Name, Limit: -1}
	for i, x := range u.xattrs {
		q.Select = append(q.Select, xSelectItem(x, u.vd.XBin, i == 0))
	}
	yAlias := make(map[string]string, len(u.yattrs))
	if raw {
		q.Select = append(q.Select, minisql.SelectItem{Col: u.yattrs[0]})
	} else {
		fn, err := minisql.ParseAgg(agg)
		if err != nil {
			return nil, err
		}
		for i, y := range u.yattrs {
			alias := fmt.Sprintf("a%d", i)
			yAlias[y] = alias
			q.Select = append(q.Select, minisql.SelectItem{Agg: fn, Col: y, Alias: alias})
		}
		for i, x := range u.xattrs {
			q.GroupBy = append(q.GroupBy, xGroupKey(x, u.vd.XBin, i == 0))
		}
	}
	q.Where = whereExpr(u.slices, constraints)
	for _, c := range xOutNames(u.xattrs, u.vd.XBin) {
		q.OrderBy = append(q.OrderBy, minisql.OrderItem{Col: c})
	}
	job := &queryJob{q: q, units: []*fetchUnit{u}, xCols: xOutNames(u.xattrs, u.vd.XBin), yAlias: yAlias, raw: raw}
	if raw {
		job.rawYCol = u.yattrs[0]
	}
	return job, nil
}

// xSelectItem is an x-axis select item; the first x attribute carries the
// binning and is aliased "xbin" so splitting can find it.
func xSelectItem(attr string, bin float64, binnable bool) minisql.SelectItem {
	if bin > 0 && binnable {
		return minisql.SelectItem{Col: attr, Bin: bin, Alias: "xbin"}
	}
	return minisql.SelectItem{Col: attr}
}

func xGroupKey(attr string, bin float64, binnable bool) minisql.GroupKey {
	if bin > 0 && binnable {
		return minisql.GroupKey{Col: attr, Bin: bin}
	}
	return minisql.GroupKey{Col: attr}
}

func xOutNames(xattrs []string, bin float64) []string {
	out := make([]string, len(xattrs))
	for i, x := range xattrs {
		if bin > 0 && i == 0 {
			out[i] = "xbin"
		} else {
			out[i] = x
		}
	}
	return out
}

// whereExpr conjoins slice equality predicates with the row constraints.
func whereExpr(slices []vis.Slice, constraints minisql.Expr) minisql.Expr {
	var parts []minisql.Expr
	for _, s := range slices {
		parts = append(parts, &minisql.Compare{Col: s.Attr, Op: minisql.CmpEq, Val: dataset.SV(s.Value)})
	}
	if constraints != nil {
		parts = append(parts, constraints)
	}
	return andOf(parts)
}

// andOf conjoins predicate parts: nil for none, the bare expression for one.
func andOf(parts []minisql.Expr) minisql.Expr {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return &minisql.And{Args: parts}
}

// appendBatchKey appends the key that groups units one SQL query can serve:
// same x shape, same aggregation, same z attribute signature, same rawness.
func appendBatchKey(dst []byte, u *fetchUnit, agg string, raw bool) []byte {
	for i, x := range u.xattrs {
		if i > 0 {
			dst = append(dst, "×"...)
		}
		dst = append(dst, x...)
	}
	dst = append(strconv.AppendFloat(append(dst, '|'), u.vd.XBin, 'g', -1, 64), '|')
	dst = append(strconv.AppendBool(append(append(dst, agg...), '|'), raw), '|')
	for i, s := range u.slices {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s.Attr...)
	}
	return dst
}

// batchQuery builds the intra-line batched query of Section 5.2 as a minisql
// AST: Z values become IN lists, Y attributes become a multi-aggregate
// select, and the Z columns are added to SELECT/GROUP BY/ORDER BY so results
// can be split.
func (ex *executor) batchQuery(units []*fetchUnit, constraints minisql.Expr) (*queryJob, error) {
	u0 := units[0]
	agg, raw := ex.aggFor(u0.vd)
	// Collect distinct y attributes and z values per attribute, preserving
	// first-seen order.
	var yattrs []string
	ySeen := make(map[string]bool)
	zattrs := make([]string, len(u0.slices))
	zseen := make([]map[string]bool, len(u0.slices))
	zvals := make([][]dataset.Value, len(u0.slices))
	for i, s := range u0.slices {
		zattrs[i] = s.Attr
		zseen[i] = make(map[string]bool, len(units))
		zvals[i] = make([]dataset.Value, 0, len(units))
	}
	for _, u := range units {
		for _, y := range u.yattrs {
			if !ySeen[y] {
				ySeen[y] = true
				yattrs = append(yattrs, y)
			}
		}
		for i, s := range u.slices {
			if !zseen[i][s.Value] {
				zseen[i][s.Value] = true
				zvals[i] = append(zvals[i], dataset.SV(s.Value))
			}
		}
	}
	q := &minisql.Query{From: ex.table.Name, Limit: -1}
	for i, x := range u0.xattrs {
		q.Select = append(q.Select, xSelectItem(x, u0.vd.XBin, i == 0))
	}
	yAlias := make(map[string]string, len(yattrs))
	if raw {
		q.Select = append(q.Select, minisql.SelectItem{Col: yattrs[0]})
	} else {
		fn, err := minisql.ParseAgg(agg)
		if err != nil {
			return nil, err
		}
		for i, y := range yattrs {
			alias := fmt.Sprintf("a%d", i)
			yAlias[y] = alias
			q.Select = append(q.Select, minisql.SelectItem{Agg: fn, Col: y, Alias: alias})
		}
	}
	for _, z := range zattrs {
		q.Select = append(q.Select, minisql.SelectItem{Col: z})
	}
	var where []minisql.Expr
	for i, z := range zattrs {
		where = append(where, &minisql.In{Col: z, Vals: zvals[i]})
	}
	if constraints != nil {
		where = append(where, constraints)
	}
	q.Where = andOf(where)
	if !raw {
		for _, z := range zattrs {
			q.GroupBy = append(q.GroupBy, minisql.GroupKey{Col: z})
		}
		for i, x := range u0.xattrs {
			q.GroupBy = append(q.GroupBy, xGroupKey(x, u0.vd.XBin, i == 0))
		}
	}
	orderCols := append(append([]string{}, zattrs...), xOutNames(u0.xattrs, u0.vd.XBin)...)
	for _, c := range orderCols {
		q.OrderBy = append(q.OrderBy, minisql.OrderItem{Col: c})
	}
	job := &queryJob{
		q:      q,
		units:  units,
		xCols:  xOutNames(u0.xattrs, u0.vd.XBin),
		zCols:  zattrs,
		yAlias: yAlias,
		raw:    raw,
	}
	if raw {
		job.rawYCol = yattrs[0]
	}
	return job, nil
}

// rowConstraints expands and parses the row's raw constraint text into a
// predicate AST, once per row; it returns the expanded text too.
func (ex *executor) rowConstraints(raw string) (string, minisql.Expr, error) {
	expanded, err := ex.expandConstraints(raw)
	if err != nil {
		return "", nil, err
	}
	if strings.TrimSpace(expanded) == "" {
		return expanded, nil, nil
	}
	e, err := minisql.ParseExpr(expanded)
	if err != nil {
		return "", nil, fmt.Errorf("constraints %q: %w", raw, err)
	}
	return expanded, e, nil
}

// rowJobs compiles a resolved row into query jobs under the current
// optimization level.
func (ex *executor) rowJobs(rs *rowState, units []*fetchUnit) ([]*queryJob, error) {
	cons, constraints, err := ex.rowConstraints(rs.row.Constraints)
	if err != nil {
		return nil, err
	}
	if ex.opts.Opt == NoOpt {
		jobs := make([]*queryJob, 0, len(units))
		for _, u := range units {
			j, err := ex.unitQuery(u, constraints)
			if err != nil {
				return nil, err
			}
			j.cons = cons
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
	// Intra-line batching: group compatible units into one query each, in
	// key order.
	groupOf := make(map[string]int)
	var keys []string
	var groups [][]*fetchUnit
	var key []byte
	for _, u := range units {
		agg, raw := ex.aggFor(u.vd)
		key = appendBatchKey(key[:0], u, agg, raw)
		g, ok := groupOf[string(key)]
		if !ok {
			k := string(key)
			g = len(keys)
			groupOf[k] = g
			keys, groups = append(keys, k), append(groups, nil)
		}
		groups[g] = append(groups[g], u)
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var jobs []*queryJob
	for _, g := range order {
		j, err := ex.batchQuery(groups[g], constraints)
		if err != nil {
			return nil, err
		}
		j.cons = cons
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// executeBatch prepares the jobs of one request, runs them through the
// back-end's shared-scan batch executor, and splits the results into the
// units' visualizations. It counts one request.
func (ex *executor) executeBatch(jobs []*queryJob) error {
	if len(jobs) == 0 {
		return nil
	}
	ex.stats.Requests++
	ex.stats.SQLQueries += len(jobs)
	parent := trace.FromContext(ex.ctx)
	prep := parent.StartChild("prepare")
	prep.SetInt("plans", int64(len(jobs)))
	plans := make([]*engine.Plan, len(jobs))
	for i, j := range jobs {
		p, err := ex.db.Prepare(j.q)
		if err != nil {
			prep.End()
			return fmt.Errorf("zexec: preparing %q: %w", j.q.SQL(), err)
		}
		// The plan rendered its canonical SQL once at Prepare; reuse it for
		// the log instead of rendering again.
		ex.sqlLog = append(ex.sqlLog, p.SQL())
		plans[i] = p
		annotatePlanSpan(prep, p)
	}
	prep.End()
	if ex.opts.PlanOnly {
		// EXPLAIN (plan mode): planning ran — canonical SQL, routes, and
		// conjunct orders are all decided — but nothing executes. Every unit
		// gets an empty visualization so downstream shaping stays total.
		for _, j := range jobs {
			for _, u := range j.units {
				u.out = &vis.Visualization{
					XAttr:   strings.Join(u.xattrs, "×"),
					YAttr:   strings.Join(u.yattrs, "+"),
					Slices:  u.slices,
					VizType: u.vd.Type,
				}
			}
		}
		return nil
	}
	exec := parent.StartChild("execute")
	start := time.Now()
	results, err := ex.db.ExecuteBatch(trace.WithSpan(ex.ctx, exec), plans)
	ex.stats.QueryTime += time.Since(start)
	exec.End()
	if err != nil {
		return fmt.Errorf("zexec: %w", err)
	}
	mat := parent.StartChild("materialize")
	defer mat.End()
	var points int64
	for i, j := range jobs {
		if err := splitJob(j, results[i]); err != nil {
			return err
		}
		for _, u := range j.units {
			points += int64(len(u.out.Points))
		}
	}
	mat.SetInt("points", points)
	return nil
}

// annotatePlanSpan records one prepared plan's audit trail — canonical SQL
// and the greedy planner's chosen conjunct order with the scores that
// ordered it — as a "plan" child span.
func annotatePlanSpan(prep *trace.Span, p *engine.Plan) {
	if prep == nil {
		return
	}
	info := p.Info()
	sp := prep.StartChild("plan")
	sp.SetStr("sql", info.SQL)
	sp.SetBool("reordered", info.Reordered)
	if len(info.Conjuncts) > 0 {
		var b strings.Builder
		for i, c := range info.Conjuncts {
			if i > 0 {
				b.WriteString("; ")
			}
			if c.Sel >= 0 {
				fmt.Fprintf(&b, "%s (sel=%.3g cost=%d)", c.SQL, c.Sel, c.Cost)
			} else {
				b.WriteString(c.SQL)
			}
		}
		sp.SetStr("conjuncts", b.String())
	}
	sp.End()
}

// splitJob distributes a job's result rows into its units' visualizations.
// Column positions are resolved once per job, rows are dealt to units by z
// group, and the job's points come from one slab sub-sliced per unit; the
// result's vectors are read in place.
func splitJob(j *queryJob, res *engine.Result) error {
	xIdx, err := resultCols(res, j.xCols, "x")
	if err != nil {
		return err
	}
	zIdx, err := resultCols(res, j.zCols, "z")
	if err != nil {
		return err
	}
	unitGroup, rowGroup, ngroups := zGroups(j, res, zIdx)
	// Counting sort: group g's rows, ascending, are rowsOf[start[g]:start[g+1]].
	start := make([]int32, ngroups+1)
	for _, g := range rowGroup {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 0; g < ngroups; g++ {
		start[g+1] += start[g]
	}
	rowsOf := make([]int32, start[ngroups])
	next := append([]int32(nil), start...)
	for r, g := range rowGroup {
		if g >= 0 {
			rowsOf[next[g]] = int32(r)
			next[g]++
		}
	}
	npoints := 0
	for _, g := range unitGroup {
		if g >= 0 {
			npoints += int(start[g+1] - start[g])
		}
	}
	points := make([]vis.Point, npoints)
	out := make([]vis.Visualization, len(j.units))
	var yIdx []int
	for ui, u := range j.units {
		v := &out[ui]
		v.XAttr, v.YAttr = strings.Join(u.xattrs, "×"), strings.Join(u.yattrs, "+")
		v.Slices, v.VizType = u.slices, u.vd.Type
		u.out = v
		g := unitGroup[ui]
		if g < 0 || start[g] == start[g+1] {
			continue // no rows: Points stays nil
		}
		rows := rowsOf[start[g]:start[g+1]]
		if yIdx, err = j.yCols(res, u, yIdx[:0]); err != nil {
			return err
		}
		v.Points, points = points[:len(rows):len(rows)], points[len(rows):]
		for k, r := range rows {
			var y float64
			if j.raw {
				y = res.Value(int(r), yIdx[0]).Float()
			} else {
				for _, yi := range yIdx {
					y += res.Value(int(r), yi).Float()
				}
			}
			v.Points[k] = vis.Point{X: composeX(res, int(r), xIdx), Y: y}
		}
	}
	return nil
}

// resultCols resolves the named result columns.
func resultCols(res *engine.Result, names []string, axis string) ([]int, error) {
	idx := make([]int, len(names))
	for i, c := range names {
		if idx[i] = res.ColIndex(c); idx[i] < 0 {
			return nil, fmt.Errorf("zexec: result missing %s column %q", axis, c)
		}
	}
	return idx, nil
}

// yCols appends the result columns a unit's y value is read from: a
// scatterplot's raw y column, or the aggregate of each of the unit's y
// attributes (a composite + axis sums them).
func (j *queryJob) yCols(res *engine.Result, u *fetchUnit, idx []int) ([]int, error) {
	if j.raw {
		yi := res.ColIndex(j.rawYCol)
		if yi < 0 {
			return nil, fmt.Errorf("zexec: result missing y column %q", j.rawYCol)
		}
		return append(idx, yi), nil
	}
	for _, yattr := range u.yattrs {
		yi := res.ColIndex(j.yAlias[yattr])
		if yi < 0 {
			return nil, fmt.Errorf("zexec: result missing aggregate column %q", j.yAlias[yattr])
		}
		idx = append(idx, yi)
	}
	return idx, nil
}

// zGroups numbers the distinct z signatures the job's units ask for — a
// unit's slice values, which line up with the job's z columns — and returns
// each unit's and each result row's group; -1 marks a row no unit asked for
// and a unit no row can match. A single dictionary-coded z column (the
// 'product'.* case) is dealt through an array indexed by dictionary code,
// with no string built or hashed; anything else through a map keyed by the
// rendered values. Several units may share a group.
func zGroups(j *queryJob, res *engine.Result, zIdx []int) (unitGroup, rowGroup []int32, ngroups int) {
	unitGroup, rowGroup = make([]int32, len(j.units)), make([]int32, res.Len())
	if len(zIdx) == 1 {
		// The array is dictionary-sized, so it must not dwarf the job.
		if z := &res.Vecs[zIdx[0]]; z.Kind == dataset.KindString && z.Dict.Cardinality() <= 4*(len(j.units)+res.Len()) {
			byCode := make([]int32, z.Dict.Cardinality()) // group + 1; 0 = no unit
			for ui, u := range j.units {
				code := z.Dict.CodeOf(u.slices[0].Value)
				if code < 0 {
					unitGroup[ui] = -1
					continue
				}
				if byCode[code] == 0 {
					ngroups++
					byCode[code] = int32(ngroups)
				}
				unitGroup[ui] = byCode[code] - 1
			}
			for r, code := range z.Codes {
				rowGroup[r] = byCode[code] - 1
			}
			return unitGroup, rowGroup, ngroups
		}
	}
	byKey := make(map[string]int32, len(j.units))
	var key []byte
	for ui, u := range j.units {
		key = key[:0]
		for i := range zIdx {
			key = append(append(key, u.slices[i].Value...), 0)
		}
		g, ok := byKey[string(key)]
		if !ok {
			g = int32(len(byKey))
			byKey[string(key)] = g
		}
		unitGroup[ui] = g
	}
	for r := range rowGroup {
		key = key[:0]
		for _, zi := range zIdx {
			key = append(append(key, res.Value(r, zi).String()...), 0)
		}
		if g, ok := byKey[string(key)]; ok {
			rowGroup[r] = g
		} else {
			rowGroup[r] = -1
		}
	}
	return unitGroup, rowGroup, len(byKey)
}

// composeX renders a result row's x value: the single x column's value, or a
// composite "a|b" for × axes.
func composeX(res *engine.Result, row int, xIdx []int) dataset.Value {
	if len(xIdx) == 1 {
		return res.Value(row, xIdx[0])
	}
	parts := make([]string, len(xIdx))
	for i, xi := range xIdx {
		parts[i] = res.Value(row, xi).String()
	}
	return dataset.SV(strings.Join(parts, "|"))
}

// collectionFromUnits assembles a row's collection after its units are
// fetched.
func collectionFromUnits(units []*fetchUnit) *Collection {
	sorted := append([]*fetchUnit(nil), units...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].order < sorted[j].order })
	c := &Collection{}
	if len(sorted) == 0 {
		return c
	}
	c.Vis, c.combos = make([]*vis.Visualization, len(sorted)), make([]point, len(sorted))
	for i, u := range sorted {
		c.Vis[i], c.combos[i] = u.out, u.assign
	}
	return c
}
