package obsv

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("reqs_total", "total requests", []string{"code"}).With("200")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	out := render(t, r)
	for _, want := range []string{
		"# HELP reqs_total total requests\n",
		"# TYPE reqs_total counter\n",
		`reqs_total{code="200"} 5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFuncAndCollector(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("ready", "readiness", func() float64 { return 1 })
	r.NewCollector("per_ds", "per dataset", "counter", func(emit func(Sample)) {
		emit(Sample{Labels: []Label{{"dataset", "sales"}}, Value: 7})
	})
	out := render(t, r)
	if !strings.Contains(out, "# TYPE ready gauge\nready 1\n") {
		t.Errorf("missing gauge func:\n%s", out)
	}
	if !strings.Contains(out, `per_ds{dataset="sales"} 7`+"\n") {
		t.Errorf("missing collector sample:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("lat_seconds", "latency", []string{"op"}, []float64{0.1, 1, 10}).With("scan")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`# TYPE lat_seconds histogram`,
		`lat_seconds_bucket{op="scan",le="0.1"} 1`,
		`lat_seconds_bucket{op="scan",le="1"} 3`,
		`lat_seconds_bucket{op="scan",le="10"} 4`,
		`lat_seconds_bucket{op="scan",le="+Inf"} 5`,
		`lat_seconds_count{op="scan"} 5`,
		`lat_seconds_sum{op="scan"} 106.05`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" bucket must include exactly-1 observations
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("boundary observation landed in bucket %v, want counts[0]=1", got)
	}
}

func TestVecsSortedAndLabelled(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("http_total", "by endpoint/code", []string{"endpoint", "code"})
	cv.With("query", "200").Add(3)
	cv.With("spec", "422").Inc()
	cv.With("query", "200").Inc() // same child
	hv := r.NewHistogramVec("dur_seconds", "by endpoint", []string{"endpoint"}, []float64{1})
	hv.With("query").Observe(0.5)
	out := render(t, r)
	wantOrder := []string{
		`http_total{endpoint="query",code="200"} 4`,
		`http_total{endpoint="spec",code="422"} 1`,
		`dur_seconds_bucket{endpoint="query",le="1"} 1`,
		`dur_seconds_count{endpoint="query"} 1`,
	}
	last := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
		if i < last {
			t.Fatalf("sample %q out of order:\n%s", want, out)
		}
		last = i
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("v_total", "", []string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	cv.With("only-one")
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("x_total", "", nil)
	for name, f := range map[string]func(){
		"duplicate": func() { r.NewGaugeFunc("x_total", "", func() float64 { return 0 }) },
		"invalid":   func() { r.NewCounterVec("9starts_with_digit", "", nil) },
		"empty":     func() { r.NewHistogramVec("", "", nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("esc_total", "has \\ and\nnewline", []string{"q"})
	cv.With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total has \\ and\nnewline`+"\n") {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{q="a\"b\\c\nd"} 1`+"\n") {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("hits_total", "hits", []string{"path"}).With("/").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `hits_total{path="/"} 1`+"\n") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("c_total", "", []string{"k"})
	hv := r.NewHistogramVec("h_seconds", "", []string{"k"}, []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cv.With("a").Inc()
				hv.With("a").Observe(0.5)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			_, _ = r.WriteTo(&b)
		}()
	}
	wg.Wait()
	c, h := cv.With("a"), hv.With("a")
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("histogram sum = %v, want 4000", h.Sum())
	}
}
