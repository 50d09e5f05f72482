package vis

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/dataset"
)

// DistanceFunc measures dissimilarity between two equal-length series.
type DistanceFunc func(a, b []float64) float64

// BoundedDistanceFunc computes the same distance as its unbounded sibling
// but may abandon early once the result provably exceeds bound. The boolean
// is true when the call was abandoned; the value is then +Inf and only means
// "greater than bound". When false, the value is bit-identical to the
// unbounded kernel — the property the process-phase differential tests pin.
type BoundedDistanceFunc func(a, b []float64, bound float64) (float64, bool)

// Euclidean is the ℓ2 distance, the paper's default D for the task
// processors (Section 7.2 uses ℓ2 for similarity search).
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// EuclideanBounded is Euclidean with early abandoning: squared differences
// accumulate in the same order as the unbounded kernel, and the loop bails as
// soon as the partial sum alone proves the distance exceeds bound. Partial
// sums only grow, so abandoning is exact: a completed call returns the very
// bits Euclidean would. The cheap squared comparison is confirmed in score
// space (sqrt is monotone) before abandoning, so a distance exactly equal to
// the bound always completes — bound² can round below the true squared
// distance, and top-k ties at the k-th score must survive to be broken by
// index. An infinite bound never abandons.
func EuclideanBounded(a, b []float64, bound float64) (float64, bool) {
	limit := bound * bound
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
		if s > limit && math.Sqrt(s) > bound {
			return math.Inf(1), true
		}
	}
	return math.Sqrt(s), false
}

// DTW is dynamic time warping with unconstrained warping window, the second
// metric the conclusion names ("euclidean and distance time warping").
func DTW(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if i == 1 && j == 1 {
				best = 0
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// DTWBounded is DTW constrained to a Sakoe-Chiba band of half-width window
// (window < 0 means unconstrained) with row-wise early abandoning: every
// warping path visits every row of the cost matrix and cell values along a
// path never decrease, so once the minimum over a whole row exceeds bound the
// final distance must too and the call returns (+Inf, true). With an
// unconstrained window and no abandon the cell arithmetic matches DTW
// operation for operation, so the result is bit-identical. The band widens to
// the length difference so the end-to-end corner stays reachable.
func DTWBounded(a, b []float64, window int, bound float64) (float64, bool) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1), false
	}
	w := window
	if w < 0 {
		w = n + m // unconstrained: the band covers the whole matrix
	}
	if d := m - n; d > 0 && w < d {
		w = d
	}
	if d := n - m; d > 0 && w < d {
		w = d
	}
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		lo, hi := i-w, i+w
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		// Only cells the band can read need resetting: this row reads
		// cur[lo-1], and the next row's band shifts by at most one, so it
		// reads prev over [lo-1, hi+1]. Anything further out is never
		// touched, which keeps a narrow band O(n·w) instead of O(n·m).
		cur[lo-1] = math.Inf(1)
		if hi < m {
			cur[hi+1] = math.Inf(1)
		}
		rowMin := math.Inf(1)
		for j := lo; j <= hi; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if i == 1 && j == 1 {
				best = 0
			}
			cur[j] = cost + best
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > bound {
			return math.Inf(1), true
		}
		prev, cur = cur, prev
	}
	return prev[m], false
}

// KLDivergence converts both series into probability distributions (shifted
// to be non-negative, normalized to sum 1, epsilon-smoothed) and returns the
// symmetrized Kullback-Leibler divergence, one of the distance choices the
// paper cites for D.
func KLDivergence(a, b []float64) float64 {
	p := toDistribution(a)
	q := toDistribution(b)
	var kl1, kl2 float64
	for i := range p {
		kl1 += p[i] * math.Log(p[i]/q[i])
		kl2 += q[i] * math.Log(q[i]/p[i])
	}
	return (kl1 + kl2) / 2
}

// EMD1D is the 1-dimensional Earth Mover's Distance between the induced
// distributions: the L1 distance between their CDFs.
func EMD1D(a, b []float64) float64 {
	p := toDistribution(a)
	q := toDistribution(b)
	var cum, emd float64
	for i := range p {
		cum += p[i] - q[i]
		emd += math.Abs(cum)
	}
	return emd
}

const distEps = 1e-9

func toDistribution(xs []float64) []float64 {
	out := make([]float64, len(xs))
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	var sum float64
	for i, x := range xs {
		out[i] = x - min + distEps
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// ZNormalize shifts the series to mean 0 and scales to standard deviation 1;
// a constant series normalizes to all zeros. zenvisage normalizes before
// comparing so that shape, not magnitude, drives similarity.
func ZNormalize(xs []float64) []float64 {
	return zNormalizeInto(make([]float64, len(xs)), xs)
}

// zNormalizeInto is ZNormalize writing into out, len(out) == len(xs), which
// may be xs itself.
func zNormalizeInto(out, xs []float64) []float64 {
	if len(xs) == 0 {
		return out
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	sd := math.Sqrt(variance)
	if sd < distEps {
		clear(out)
		return out
	}
	for i, x := range xs {
		out[i] = (x - mean) / sd
	}
	return out
}

// MinMaxNormalize scales the series into [0, 1]; a constant series maps to
// all 0.5.
func MinMaxNormalize(xs []float64) []float64 {
	return minMaxNormalizeInto(make([]float64, len(xs)), xs)
}

// minMaxNormalizeInto is MinMaxNormalize writing into out, len(out) ==
// len(xs), which may be xs itself.
func minMaxNormalizeInto(out, xs []float64) []float64 {
	if len(xs) == 0 {
		return out
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi-lo < distEps {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// Metric bundles a distance function with the normalization zenvisage
// applies before measuring.
type Metric struct {
	Name      string
	Fn        DistanceFunc
	Normalize bool
	// Window is the Sakoe-Chiba band half-width for DTW metrics (0 =
	// unconstrained). It is part of the metric's identity: the sequential
	// oracle and the pruned executor see the same band, so pruning never
	// changes results.
	Window int
	// Bounded, when set, computes the same distance as Fn but may abandon
	// once the result provably exceeds the caller's bound — the hook the
	// process phase's top-k search uses to skip hopeless candidates.
	Bounded BoundedDistanceFunc
}

// DefaultMetric is z-normalized Euclidean distance.
var DefaultMetric = Metric{Name: "euclidean", Fn: Euclidean, Normalize: true, Bounded: EuclideanBounded}

// MetricByName resolves a metric name used in ZQL process columns and CLI
// flags: euclidean, dtw, kl, emd (each with a raw- prefix to skip
// normalization). DTW accepts a Sakoe-Chiba band half-width suffix, as in
// "dtw:8". Euclidean and DTW carry early-abandoning bounded kernels; KL and
// EMD need the whole series before anything is comparable, so they don't.
func MetricByName(name string) (Metric, error) {
	norm := true
	if rest, ok := cutPrefix(name, "raw-"); ok {
		norm = false
		name = rest
	}
	if rest, ok := cutPrefix(name, "dtw:"); ok {
		w, err := strconv.Atoi(rest)
		if err != nil || w < 1 {
			return Metric{}, fmt.Errorf("vis: bad DTW band width in %q (want dtw:N with N >= 1)", name)
		}
		return dtwMetric(norm, w), nil
	}
	switch name {
	case "", "euclidean", "l2":
		return Metric{Name: "euclidean", Fn: Euclidean, Normalize: norm, Bounded: EuclideanBounded}, nil
	case "dtw":
		return dtwMetric(norm, 0), nil
	case "kl":
		return Metric{Name: "kl", Fn: KLDivergence, Normalize: norm}, nil
	case "emd":
		return Metric{Name: "emd", Fn: EMD1D, Normalize: norm}, nil
	}
	return Metric{}, fmt.Errorf("vis: unknown distance metric %q", name)
}

// dtwMetric builds the (possibly banded) DTW metric; window 0 means
// unconstrained. Fn and Bounded share one kernel so their completed results
// agree bit for bit.
func dtwMetric(norm bool, window int) Metric {
	w := window
	if w == 0 {
		w = -1
	}
	name := "dtw"
	if window > 0 {
		name = fmt.Sprintf("dtw:%d", window)
	}
	return Metric{
		Name:      name,
		Normalize: norm,
		Window:    window,
		Fn: func(a, b []float64) float64 {
			d, _ := DTWBounded(a, b, w, math.Inf(1))
			return d
		},
		Bounded: func(a, b []float64, bound float64) (float64, bool) {
			return DTWBounded(a, b, w, bound)
		},
	}
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// Distance aligns two visualizations and measures the metric between them —
// the D(f1, f2) of ZQL process columns. Visualizations sharing x values are
// aligned on their joint domain; visualizations with fully disjoint domains
// (a user-drawn trend at x = 0..n against a chart over years) are aligned
// positionally, resampling the shorter to the longer — the way the
// front-end's drawing box maps a sketched polyline onto the chart's x-axis.
func Distance(a, b *Visualization, m Metric) float64 {
	return new(Scratch).Distance(a, b, m)
}

// Scratch is the working memory of Distance, DistanceBounded and Trend: the
// vectors visualizations are aligned and normalized into, kept for the next
// call. A zero Scratch is ready to use; one serves one goroutine at a time.
// Its Distance and Trend compute exactly what the package functions do.
type Scratch struct {
	ya, yb, ra, rb []float64
}

// Distance is the package Distance over s's vectors.
func (s *Scratch) Distance(a, b *Visualization, m Metric) float64 {
	va, vb := s.alignedVectors(a, b, m)
	return m.Fn(va, vb)
}

// DistanceBounded is Distance with an early-abandoning cutoff: when the
// metric carries a bounded kernel, the call may stop as soon as the distance
// provably exceeds bound (returning +Inf, true). A completed call returns
// exactly the bits Distance would — the guarantee that lets the top-k
// process executor prune without changing results. Metrics without a bounded
// kernel fall back to the full computation.
func (s *Scratch) DistanceBounded(a, b *Visualization, m Metric, bound float64) (float64, bool) {
	va, vb := s.alignedVectors(a, b, m)
	if m.Bounded == nil || math.IsInf(bound, 1) {
		return m.Fn(va, vb), false
	}
	return m.Bounded(va, vb, bound)
}

// Trend is the package Trend over s's vectors.
func (s *Scratch) Trend(v *Visualization) float64 {
	s.ya = v.appendYs(s.ya[:0])
	return trendOf(minMaxNormalizeInto(s.ya, s.ya))
}

// alignedVectors aligns and normalizes the two visualizations the way
// Distance documents, into s's vectors.
func (s *Scratch) alignedVectors(a, b *Visualization, m Metric) ([]float64, []float64) {
	var va, vb []float64
	if sameSortedDomain(a, b) {
		// Identical ordered x sequences — the overwhelmingly common case for
		// two visualizations of one query, whose points arrive sorted on the
		// same group-by domain. Their y series already are the vectors the
		// map-based union below would produce, at a fraction of the cost;
		// this is the alignment half of the distance hot path.
		s.ya, s.yb = a.appendYs(s.ya[:0]), b.appendYs(s.yb[:0])
		va, vb = s.ya, s.yb
	} else if disjointDomains(a, b) {
		s.ya, s.yb = a.appendYs(s.ya[:0]), b.appendYs(s.yb[:0])
		n := max(len(s.ya), len(s.yb))
		s.ra, s.rb = resampleInto(s.ra[:0], s.ya, n), resampleInto(s.rb[:0], s.yb, n)
		va, vb = s.ra, s.rb
	} else {
		domain := Domain([]*Visualization{a, b})
		va, vb = a.Vector(domain), b.Vector(domain)
	}
	if m.Normalize {
		va, vb = zNormalizeInto(va, va), zNormalizeInto(vb, vb)
	}
	return va, vb
}

// sameSortedDomain reports whether the two series carry an identical,
// strictly ascending x sequence. Strict ascent rules out duplicate keys (and
// NaN x values, which compare unordered), so the pairwise union the slow
// path computes is exactly this sequence and the fast path is
// result-identical.
func sameSortedDomain(a, b *Visualization) bool {
	if len(a.Points) == 0 || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		ax, bx := a.Points[i].X, b.Points[i].X
		if ax != bx {
			return false
		}
		if i > 0 && a.Points[i-1].X.Compare(ax) >= 0 {
			return false
		}
	}
	return true
}

// disjointDomains reports whether the two visualizations share no x value.
// Integer x values whose ranges do not overlap — a drawn trend at 0..n
// against years — answer without building the set of renderings.
func disjointDomains(a, b *Visualization) bool {
	if len(a.Points) == 0 || len(b.Points) == 0 {
		return false
	}
	if alo, ahi, ok := intRange(a); ok {
		if blo, bhi, ok := intRange(b); ok && (ahi < blo || bhi < alo) {
			return true
		}
	}
	seen := make(map[string]bool, len(a.Points))
	for _, p := range a.Points {
		seen[p.X.String()] = true
	}
	for _, p := range b.Points {
		if seen[p.X.String()] {
			return false
		}
	}
	return true
}

// intRange returns the least and greatest x value of v, when every one is an
// integer.
func intRange(v *Visualization) (lo, hi int64, ok bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, p := range v.Points {
		if p.X.Kind != dataset.KindInt {
			return 0, 0, false
		}
		lo, hi = min(lo, p.X.I), max(hi, p.X.I)
	}
	return lo, hi, true
}

// resampleInto linearly interpolates ys to n points, preserving its
// endpoints and shape, into dst's storage grown to n; dst does not overlap
// ys.
func resampleInto(dst, ys []float64, n int) []float64 {
	if n <= 0 || len(ys) == 0 {
		return nil
	}
	out := slices.Grow(dst, n)[:n]
	if len(ys) == 1 || n == 1 {
		for i := range out {
			out[i] = ys[0]
		}
		return out
	}
	scale := float64(len(ys)-1) / float64(n-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(ys)-1 {
			out[i] = ys[len(ys)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = ys[lo]*(1-frac) + ys[lo+1]*frac
	}
	return out
}

// Trend is T(f): the slope of the least-squares line fit to the normalized
// series against equally spaced x positions. Positive means "growth".
func Trend(v *Visualization) float64 {
	return trendOf(MinMaxNormalize(v.Ys()))
}

// trendOf is Trend over the normalized series.
func trendOf(ys []float64) float64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	// x positions 0..n-1 scaled into [0,1] so slopes are comparable across
	// visualizations with different series lengths.
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range ys {
		x := float64(i) / float64(n-1)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	nf := float64(n)
	denom := nf*sumXX - sumX*sumX
	if math.Abs(denom) < distEps {
		return 0
	}
	return (nf*sumXY - sumX*sumY) / denom
}
