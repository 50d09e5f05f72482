// Package vis defines the visualization data model of zenvisage and the
// paper's three exploration primitives: T (overall trend of a visualization),
// D (distance between two visualizations), and R (k-representative
// selection). Chapter 3.8 of the paper defines these as configurable black
// boxes with system defaults; the defaults here are least-squares slope for
// T, z-normalized Euclidean distance for D, and k-means centroids for R —
// exactly the defaults the paper names.
package vis

import (
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Point is one (x, y) pair of a visualization, x kept as a dynamic value so
// that both ordinal (year) and categorical (state) x-axes work.
type Point struct {
	X dataset.Value
	Y float64
}

// Slice identifies one Z-column selection: attribute = value.
type Slice struct {
	Attr  string
	Value string
}

// Visualization is the data underlying a single rendered chart: the axis
// attributes, the slice (Z) selections that subset the data, the chart type,
// and the (x, y) series.
type Visualization struct {
	XAttr   string
	YAttr   string
	Slices  []Slice
	VizType string // "bar", "line", "scatterplot", ... ("" = rule-of-thumb)
	Points  []Point
}

// Key returns a stable identity string for the visualization: axes plus
// slices. Two visualizations with equal keys plot the same data selection.
func (v *Visualization) Key() string {
	var sb strings.Builder
	sb.WriteString(v.XAttr)
	sb.WriteByte('|')
	sb.WriteString(v.YAttr)
	for _, s := range v.Slices {
		sb.WriteByte('|')
		sb.WriteString(s.Attr)
		sb.WriteByte('=')
		sb.WriteString(s.Value)
	}
	return sb.String()
}

// Label renders a short human-readable title like "sales vs year [product=chair]".
func (v *Visualization) Label() string {
	n := len(v.YAttr) + len(" vs ") + len(v.XAttr) + len(" []")
	for _, s := range v.Slices {
		n += len(s.Attr) + len("=, ") + len(s.Value)
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(v.YAttr)
	sb.WriteString(" vs ")
	sb.WriteString(v.XAttr)
	if len(v.Slices) > 0 {
		sb.WriteString(" [")
		for i, s := range v.Slices {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(s.Attr)
			sb.WriteByte('=')
			sb.WriteString(s.Value)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// SortPoints orders the series by x ascending; executors emit ordered data
// but user-drawn input may not be.
func (v *Visualization) SortPoints() {
	sort.SliceStable(v.Points, func(i, j int) bool {
		return v.Points[i].X.Compare(v.Points[j].X) < 0
	})
}

// Ys returns the y series in x order.
func (v *Visualization) Ys() []float64 {
	return v.appendYs(make([]float64, 0, len(v.Points)))
}

// appendYs appends the y series to dst.
func (v *Visualization) appendYs(dst []float64) []float64 {
	for _, p := range v.Points {
		dst = append(dst, p.Y)
	}
	return dst
}

// FromSeries builds a visualization from parallel x/y slices.
func FromSeries(xAttr, yAttr string, xs []dataset.Value, ys []float64) *Visualization {
	v := &Visualization{XAttr: xAttr, YAttr: yAttr}
	for i := range xs {
		v.Points = append(v.Points, Point{X: xs[i], Y: ys[i]})
	}
	return v
}

// FromFloats builds a user-drawn visualization from y values at integer x
// positions, the shape the front-end's drawing box produces.
func FromFloats(ys []float64) *Visualization {
	v := &Visualization{XAttr: "x", YAttr: "y"}
	for i, y := range ys {
		v.Points = append(v.Points, Point{X: dataset.IV(int64(i)), Y: y})
	}
	return v
}

// Domain returns the sorted union of x keys across the visualizations,
// rendered as strings; it is the shared coordinate system used when
// vectorizing visualizations for distance computation and clustering.
func Domain(vs []*Visualization) []dataset.Value {
	if sharedSortedDomain(vs) {
		// One strictly ascending x sequence, shared by all: its keys are
		// distinct and already in order, so it is the union.
		out := make([]dataset.Value, len(vs[0].Points))
		for i, p := range vs[0].Points {
			out[i] = p.X
		}
		return out
	}
	seen := make(map[string]dataset.Value)
	for _, v := range vs {
		for _, p := range v.Points {
			seen[p.X.String()] = p.X
		}
	}
	out := make([]dataset.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Vector projects the visualization onto the given x domain, filling missing
// x positions by linear interpolation between neighbours (the paper's future
// work names interpolation for missing points; endpoints clamp).
func (v *Visualization) Vector(domain []dataset.Value) []float64 {
	if onDomain(v, domain) {
		return v.Ys()
	}
	byX := make(map[string]float64, len(v.Points))
	for _, p := range v.Points {
		byX[p.X.String()] = p.Y
	}
	out := make([]float64, len(domain))
	missing := make([]bool, len(domain))
	for i, x := range domain {
		if y, ok := byX[x.String()]; ok {
			out[i] = y
		} else {
			missing[i] = true
		}
	}
	fillMissing(out, missing)
	return out
}

// onDomain reports whether v's x values are domain itself, in order, and
// domain is strictly ascending: its keys are then distinct, so v has a value
// at every position and no duplicate to overwrite one.
func onDomain(v *Visualization, domain []dataset.Value) bool {
	if len(v.Points) != len(domain) {
		return false
	}
	for i, x := range domain {
		if v.Points[i].X != x || i > 0 && domain[i-1].Compare(x) >= 0 {
			return false
		}
	}
	return true
}

// sharedSortedDomain reports whether every visualization carries the first
// one's x values, a strictly ascending sequence (sameSortedDomain).
func sharedSortedDomain(vs []*Visualization) bool {
	for _, v := range vs {
		if !sameSortedDomain(vs[0], v) {
			return false
		}
	}
	return len(vs) > 0
}

// fillMissing linearly interpolates runs of missing values; leading and
// trailing runs clamp to the nearest present value; all-missing yields zeros.
func fillMissing(ys []float64, missing []bool) {
	first := -1
	for i, m := range missing {
		if !m {
			first = i
			break
		}
	}
	if first == -1 {
		return
	}
	for i := 0; i < first; i++ {
		ys[i] = ys[first]
	}
	prev := first
	for i := first + 1; i < len(ys); i++ {
		if missing[i] {
			continue
		}
		if i > prev+1 {
			step := (ys[i] - ys[prev]) / float64(i-prev)
			for j := prev + 1; j < i; j++ {
				ys[j] = ys[prev] + step*float64(j-prev)
			}
		}
		prev = i
	}
	for i := prev + 1; i < len(ys); i++ {
		ys[i] = ys[prev]
	}
}
