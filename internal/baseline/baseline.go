// Package baseline implements the comparison tool of the user study
// (Chapter 8): "our baseline tool replicated the basic query specification
// and output visualization capabilities of existing tools such as Tableau
// ... the baseline allowed users to visualize data by allowing them to
// specify the x-axis, y-axis, category, and filters. The baseline tool would
// populate all the visualizations, which fit the user specifications, using
// an alpha-numeric sort order."
//
// It also provides the effort comparison underlying the study's Finding 1:
// with the baseline, a user hunting for a pattern examines visualizations in
// alphanumeric order until hitting the best match; with zenvisage, the best
// match is ranked first.
package baseline

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/vis"
)

// Filter is one filter row of the baseline interface.
type Filter struct {
	Attr  string
	Op    string // =, !=, <, <=, >, >=, LIKE; default =
	Value string
}

// Tool is a baseline session over one table.
type Tool struct {
	db    engine.DB
	table string
}

// New creates a baseline tool over the back-end.
func New(db engine.DB, table string) *Tool {
	return &Tool{db: db, table: table}
}

// Specify returns every visualization matching the specification — one per
// category value, in alphanumeric order of the value, aggregating y with agg
// (default avg). This is the entirety of the baseline's query power.
func (t *Tool) Specify(x, y, category string, filters []Filter, agg string) ([]*vis.Visualization, error) {
	tb := t.db.Table(t.table)
	if tb == nil {
		return nil, fmt.Errorf("baseline: no table %q", t.table)
	}
	for _, col := range []string{x, y, category} {
		if !tb.HasColumn(col) {
			return nil, fmt.Errorf("baseline: table %q has no column %q", t.table, col)
		}
	}
	if agg == "" {
		agg = "avg"
	}
	var where string
	if len(filters) > 0 {
		parts := make([]string, len(filters))
		for i, f := range filters {
			op := f.Op
			if op == "" {
				op = "="
			}
			val := f.Value
			if c := tb.Column(f.Attr); c == nil || c.Field.Kind == dataset.KindString {
				val = "'" + strings.ReplaceAll(val, "'", "''") + "'"
			}
			parts[i] = fmt.Sprintf("%s %s %s", f.Attr, op, val)
		}
		where = " WHERE " + strings.Join(parts, " AND ")
	}
	sql := fmt.Sprintf("SELECT %s, %s(%s) AS y, %s FROM %s%s GROUP BY %s, %s ORDER BY %s, %s",
		x, strings.ToUpper(agg), y, category, t.table, where, category, x, category, x)
	res, err := t.db.ExecuteSQL(sql)
	if err != nil {
		return nil, err
	}
	xi, yi, zi := res.ColIndex(x), res.ColIndex("y"), res.ColIndex(category)
	var out []*vis.Visualization
	var cur *vis.Visualization
	var curZ string
	for _, row := range res.Rows() {
		zv := row[zi].String()
		if cur == nil || zv != curZ {
			cur = &vis.Visualization{XAttr: x, YAttr: y,
				Slices: []vis.Slice{{Attr: category, Value: zv}}}
			out = append(out, cur)
			curZ = zv
		}
		cur.Points = append(cur.Points, vis.Point{X: row[xi], Y: row[yi].Float()})
	}
	// ORDER BY already sorts by category; make the alphanumeric contract
	// explicit regardless of back-end ordering quirks.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Slices[0].Value < out[j].Slices[0].Value
	})
	return out, nil
}

// Effort is the examination cost of one pattern-finding task on both tools.
type Effort struct {
	Candidates        int // total visualizations matching the specification
	BaselineExamined  int // charts viewed before reaching the best match (alphanumeric order)
	ZenvisageExamined int // always 1: the ranked list puts the best match first
	BestMatch         string
}

// CompareEffort measures Finding 1's mechanism for a drawn-pattern search:
// the baseline user pages through charts alphabetically until the best match;
// zenvisage ranks it first.
func (t *Tool) CompareEffort(x, y, category string, drawn []float64, m vis.Metric) (Effort, error) {
	viss, err := t.Specify(x, y, category, nil, "")
	if err != nil {
		return Effort{}, err
	}
	if len(viss) == 0 {
		return Effort{}, fmt.Errorf("baseline: no candidate visualizations")
	}
	target := vis.FromFloats(drawn)
	best, bestD := 0, 0.0
	for i, v := range viss {
		d := vis.Distance(target, v, m)
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return Effort{
		Candidates:        len(viss),
		BaselineExamined:  best + 1,
		ZenvisageExamined: 1,
		BestMatch:         viss[best].Slices[0].Value,
	}, nil
}
