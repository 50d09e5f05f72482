// Package obsv is a dependency-free metrics library exposing the Prometheus
// text exposition format (version 0.0.4). It provides labelled monotonically
// increasing counters and fixed-bucket histograms ("vecs"), plus scrape-time
// gauges and collectors for values that already live elsewhere (store
// counters, queue depths). The registry renders everything with WriteTo /
// ServeHTTP.
//
// The package deliberately implements only what the serving layer needs:
// no push gateways, no summaries, no exemplars. Instruments are safe for
// concurrent use; hot-path updates are single atomic operations.
package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one key="value" pair on a sample.
type Label struct {
	Key, Value string
}

// A Sample is one exposition line within a metric family. Suffix is appended
// to the family name ("_bucket", "_sum", "_count" for histograms; empty for
// counters and gauges).
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// family is one named metric with its HELP/TYPE header and a scrape-time
// sample producer.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", or "histogram"
	collect func(emit func(Sample))
}

// A Registry holds metric families and renders them in registration order.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ string, collect func(emit func(Sample))) {
	if !validName(name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obsv: duplicate metric name %q", name))
	}
	r.names[name] = struct{}{}
	r.fams = append(r.fams, &family{name: name, help: help, typ: typ, collect: collect})
}

// NewCollector registers a fully dynamic family: fn is invoked at scrape time
// and emits whatever samples currently exist. Use it for per-dataset or
// per-shard series whose label sets are not known up front.
func (r *Registry) NewCollector(name, help, typ string, fn func(emit func(Sample))) {
	r.register(name, help, typ, fn)
}

// NewGaugeFunc registers a single unlabelled gauge computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(emit func(Sample)) {
		emit(Sample{Value: fn()})
	})
}

// ---------------------------------------------------------------------------
// Counter

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// ---------------------------------------------------------------------------
// Histogram

// DefBuckets are latency-shaped default bucket bounds in seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// A Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// emitWith writes the cumulative bucket, sum, and count samples, appending
// base labels to each.
func (h *Histogram) emitWith(base []Label, emit func(Sample)) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		emit(Sample{
			Suffix: "_bucket",
			Labels: append(append([]Label{}, base...), Label{"le", formatFloat(bound)}),
			Value:  float64(cum),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	emit(Sample{
		Suffix: "_bucket",
		Labels: append(append([]Label{}, base...), Label{"le", "+Inf"}),
		Value:  float64(cum),
	})
	emit(Sample{Suffix: "_sum", Labels: base, Value: h.Sum()})
	emit(Sample{Suffix: "_count", Labels: base, Value: float64(h.Count())})
}

// ---------------------------------------------------------------------------
// Labelled vecs

// vec is the shared child table behind CounterVec and HistogramVec.
type vec[T any] struct {
	mu     sync.Mutex
	labels []string
	kids   map[string]T
	vals   map[string][]string
	make   func() T
}

func newVec[T any](labels []string, mk func() T) *vec[T] {
	return &vec[T]{labels: labels, kids: make(map[string]T), vals: make(map[string][]string), make: mk}
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obsv: got %d label values, want %d (%v)", len(values), len(v.labels), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	kid, ok := v.kids[key]
	if !ok {
		kid = v.make()
		v.kids[key] = kid
		v.vals[key] = append([]string{}, values...)
	}
	return kid
}

// snapshot returns the children in sorted key order for deterministic output.
func (v *vec[T]) snapshot() (keys []string, kids []T, labels [][]Label) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys = make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kids = append(kids, v.kids[k])
		ls := make([]Label, len(v.labels))
		for i, name := range v.labels {
			ls[i] = Label{name, v.vals[k][i]}
		}
		labels = append(labels, ls)
	}
	return keys, kids, labels
}

// A CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v *vec[*Counter] }

// With returns (creating on first use) the child counter for the given label
// values, which must match the label names in count and order.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels []string) *CounterVec {
	cv := &CounterVec{v: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(name, help, "counter", func(emit func(Sample)) {
		_, kids, ls := cv.v.snapshot()
		for i, kid := range kids {
			emit(Sample{Labels: ls[i], Value: float64(kid.Value())})
		}
	})
	return cv
}

// A HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ v *vec[*Histogram] }

// With returns (creating on first use) the child histogram for the given
// label values.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values...) }

// NewHistogramVec registers a labelled histogram family. A nil bucket slice
// selects DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, labels []string, buckets []float64) *HistogramVec {
	hv := &HistogramVec{v: newVec(labels, func() *Histogram { return newHistogram(buckets) })}
	r.register(name, help, "histogram", func(emit func(Sample)) {
		_, kids, ls := hv.v.snapshot()
		for i, kid := range kids {
			kid.emitWith(ls[i], emit)
		}
	})
	return hv
}

// ---------------------------------------------------------------------------
// Exposition

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteTo renders every registered family in the Prometheus text exposition
// format, in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family{}, r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(s Sample) {
			b.WriteString(f.name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		})
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ServeHTTP implements http.Handler, serving the exposition text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if req.Method == http.MethodHead {
		return
	}
	_, _ = r.WriteTo(w)
}
