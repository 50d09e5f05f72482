// Package recommend implements zenvisage's Recommendation Service (Section
// 6.2): alongside query results, the back-end surfaces the most *diverse*
// trends for the axes the user is viewing, found by k-means clustering the
// candidate visualizations and returning one representative per cluster
// (default k = 5, user-adjustable, exactly as the paper describes).
package recommend

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/vis"
)

// Request describes what the user is currently viewing.
type Request struct {
	Table string
	X, Y  string
	Z     string // the attribute to slice by (one visualization per value)
	Agg   string // aggregate for Y; default "avg"
	K     int    // number of recommendations; default 5
	Seed  int64
}

// Recommendation is one suggested visualization with the size of the cluster
// it represents (bigger cluster = more common trend).
type Recommendation struct {
	Vis         *vis.Visualization
	ClusterSize int
}

// Diverse returns up to K visualizations representing the most diverse
// trends among the Z slices of the current view. The candidates come from one
// grouped query, run as a one-plan batch under ctx: a deadline or
// cancellation stops it at the engine's next cancellation point.
func Diverse(ctx context.Context, db engine.DB, req Request, m vis.Metric) ([]Recommendation, error) {
	if req.K <= 0 {
		req.K = 5
	}
	if req.Agg == "" {
		req.Agg = "avg"
	}
	t := db.Table(req.Table)
	if t == nil {
		return nil, fmt.Errorf("recommend: no table %q", req.Table)
	}
	for _, col := range []string{req.X, req.Y, req.Z} {
		if !t.HasColumn(col) {
			return nil, fmt.Errorf("recommend: table %q has no column %q", req.Table, col)
		}
	}
	sql := fmt.Sprintf("SELECT %s, %s(%s) AS y, %s FROM %s GROUP BY %s, %s ORDER BY %s, %s",
		req.X, strings.ToUpper(req.Agg), req.Y, req.Z, req.Table, req.Z, req.X, req.Z, req.X)
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	results, err := db.ExecuteBatch(ctx, []*engine.Plan{p})
	if err != nil {
		return nil, err
	}
	res := results[0]
	xi, yi, zi := res.ColIndex(req.X), res.ColIndex("y"), res.ColIndex(req.Z)
	var viss []*vis.Visualization
	var cur *vis.Visualization
	var curZ string
	for _, row := range res.Rows() {
		z := row[zi].String()
		if cur == nil || z != curZ {
			cur = &vis.Visualization{
				XAttr:  req.X,
				YAttr:  req.Y,
				Slices: []vis.Slice{{Attr: req.Z, Value: z}},
			}
			viss = append(viss, cur)
			curZ = z
		}
		cur.Points = append(cur.Points, vis.Point{X: row[xi], Y: row[yi].Float()})
	}
	if len(viss) == 0 {
		return nil, nil
	}
	picked := vis.Representative(viss, req.K, m, req.Seed)
	// Cluster sizes: rerun the clustering to attribute sizes. Representative
	// orders by descending cluster size; approximate sizes by re-assigning
	// every candidate to its nearest pick.
	domain := vis.Domain(viss)
	vecs := make([][]float64, len(viss))
	for i, v := range viss {
		vec := v.Vector(domain)
		if m.Normalize {
			vec = vis.ZNormalize(vec)
		}
		vecs[i] = vec
	}
	sizes := make(map[int]int, len(picked))
	for i := range viss {
		best, bestD := -1, 0.0
		for _, p := range picked {
			d := m.Fn(vecs[i], vecs[p])
			if best == -1 || d < bestD {
				best, bestD = p, d
			}
		}
		sizes[best]++
	}
	out := make([]Recommendation, 0, len(picked))
	for _, p := range picked {
		out = append(out, Recommendation{Vis: viss[p], ClusterSize: sizes[p]})
	}
	return out, nil
}
