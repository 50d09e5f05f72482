package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/frontend"
	"repro/internal/trace"
	"repro/internal/zexec"
)

// maxBodyBytes bounds request bodies; ZQL text and drawn trends are tiny.
const maxBodyBytes = 1 << 20

// maxAppendBodyBytes bounds POST /datasets/{name}/append bodies, which carry
// row data rather than query text.
const maxAppendBodyBytes = 16 << 20

// Server is the HTTP query server: a mux over a dataset registry.
//
// Endpoints:
//
//	POST /query                   raw ZQL -> executed result
//	POST /spec                    drag-and-drop spec -> ZQL -> executed result
//	POST /recommend               diverse-trend recommendations for an axis triple
//	POST /datasets/{name}/append  extend a zpack-backed dataset with rows
//	GET  /datasets                registered datasets with schemas
//	GET  /stats                   engine / cache / coalescing / HTTP counters
//	GET  /metrics                 Prometheus text exposition of the same counters
//	GET  /healthz                 liveness probe (process is up)
//	GET  /readyz                  readiness probe (datasets loaded, no swap in flight)
//
// Every response carries an X-Request-ID (inbound IDs are honored). Query
// execution runs under the request's context: the server default deadline
// (WithTimeout) or a per-request X-Timeout header bounds it, and a request
// that exceeds its deadline gets 504 with the partial execution statistics.
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in request instrumentation
	metrics *metrics
	access  *accessLogger
	timeout time.Duration
	// slowThreshold gates the slow-query log: a traced request slower than
	// it is captured into slow (nil when disabled by a negative threshold).
	slowThreshold time.Duration
	slow          *slowLog
	slowKeep      int
}

// Option configures a Server.
type Option func(*Server)

// WithTimeout sets the default per-request execution deadline; 0 (the
// default) means no deadline. A request's X-Timeout header overrides it.
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithAccessLog enables one structured JSON access-log line per request,
// written to w (typically os.Stderr or a rotated file).
func WithAccessLog(w io.Writer) Option {
	return func(s *Server) { s.access = newAccessLogger(w) }
}

// WithSlowQueryLog configures the slow-query ring buffer: requests slower
// than threshold are captured with their full span tree and served at
// GET /debug/slowlog. A negative threshold disables capture (tracing itself
// stays on — it also feeds EXPLAIN and the stage histograms). keep <= 0
// retains DefaultSlowLogKeep entries.
func WithSlowQueryLog(threshold time.Duration, keep int) Option {
	return func(s *Server) {
		s.slowThreshold = threshold
		s.slowKeep = keep
	}
}

// New builds a server over the registry.
func New(reg *Registry, opts ...Option) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), slowThreshold: DefaultSlowQueryThreshold}
	for _, o := range opts {
		o(s)
	}
	if s.slowThreshold >= 0 {
		s.slow = newSlowLog(s.slowKeep)
	}
	s.metrics = newMetrics(reg)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /spec", s.handleSpec)
	s.mux.HandleFunc("POST /recommend", s.handleRecommend)
	s.mux.HandleFunc("POST /datasets/{name}/append", s.handleAppend)
	s.mux.HandleFunc("POST /datasets/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	s.mux.Handle("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok %s\n", Version())
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.handler = s.instrument(s.mux)
	return s
}

// ServeHTTP dispatches through the instrumentation middleware to the
// endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// handleReady is the readiness probe: 200 once startup loading completed and
// no dataset snapshot swap is in flight, else 503. Load balancers and CI wait
// loops should gate on this, not /healthz (which only proves the process is
// up and never goes unready).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.reg.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// logged when the client went away before its query finished.
const StatusClientClosedRequest = 499

// statusFromError maps well-known execution errors onto their HTTP statuses,
// falling back to the handler's default. Every handler writes errors through
// writeError, so the mapping is uniform across endpoints.
func statusFromError(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	}
	return fallback
}

// errorJSON is the uniform error envelope. PartialStats is present on
// deadline (504) and disconnect (499) responses: the execution statistics
// accumulated before the context cut the run short, so a caller can see how
// much work its budget bought.
type errorJSON struct {
	Error        string        `json:"error"`
	PartialStats *RunStatsJSON `json:"partialStats,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform error envelope, remapping overload and
// context errors onto their statuses (429 with Retry-After, 504, 499) and
// attaching partial execution stats when the engine reported them.
func writeError(w http.ResponseWriter, status int, err error) {
	status = statusFromError(err, status)
	body := errorJSON{Error: err.Error()}
	var pe *zexec.PartialError
	if errors.As(err, &pe) {
		stats := EncodeStats(pe.Stats)
		body.PartialStats = &stats
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

// decodeBody decodes a bounded JSON request body, rejecting unknown fields so
// typos in hand-written curl payloads fail loudly.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// dataset resolves the request's dataset or writes a 404.
func (s *Server) dataset(w http.ResponseWriter, name string) *Dataset {
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"dataset\""))
		return nil
	}
	d := s.reg.Get(name)
	if d == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no dataset %q", name))
	}
	return d
}

// optLevel resolves a request's optional "opt" field against the dataset
// default.
func optLevel(d *Dataset, name string) (zexec.OptLevel, error) {
	if name == "" {
		return d.Opt(), nil
	}
	return zexec.OptLevelByName(name)
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Dataset string               `json:"dataset"`
	ZQL     string               `json:"zql"`
	Inputs  map[string][]float64 `json:"inputs,omitempty"`
	Opt     string               `json:"opt,omitempty"`
	// Explain selects EXPLAIN mode: "plan" prepares everything (canonical
	// SQL, conjunct order) but executes nothing and returns the span
	// tree with an empty result; "analyze" executes normally and returns the
	// span tree alongside the result. Empty means a normal query.
	Explain string `json:"explain,omitempty"`
}

// QueryResponse is the body of POST /query and POST /spec responses. Result
// is deterministic for a given dataset and query; Stats varies run to run.
// Trace is present only on explain requests.
type QueryResponse struct {
	Dataset string       `json:"dataset"`
	ZQL     string       `json:"zql,omitempty"`
	Result  ResultJSON   `json:"result"`
	Stats   RunStatsJSON `json:"stats"`
	Trace   *trace.Tree  `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d := s.dataset(w, req.Dataset)
	if d == nil {
		return
	}
	d.ctr.queries.Add(1)
	s.execute(w, r, d, "/query", req.ZQL, req.Inputs, req.Opt, "", req.Explain)
}

// SpecJSON is the wire form of the drag-and-drop interface state
// (frontend.Spec with the task named instead of enumerated).
type SpecJSON struct {
	X       string       `json:"x"`
	Y       string       `json:"y"`
	Z       string       `json:"z,omitempty"`
	ZValue  string       `json:"zValue,omitempty"`
	Filters []FilterJSON `json:"filters,omitempty"`
	VizType string       `json:"vizType,omitempty"`
	Agg     string       `json:"agg,omitempty"`
	Task    string       `json:"task,omitempty"`
	K       int          `json:"k,omitempty"`
	Drawn   []float64    `json:"drawn,omitempty"`
}

// FilterJSON is one row of the filters panel.
type FilterJSON struct {
	Attr  string `json:"attr"`
	Op    string `json:"op,omitempty"`
	Value string `json:"value"`
}

// toSpec maps the wire spec onto the front-end translation input.
func (sj *SpecJSON) toSpec() (frontend.Spec, error) {
	task, err := frontend.TaskByName(sj.Task)
	if err != nil {
		return frontend.Spec{}, err
	}
	spec := frontend.Spec{
		X: sj.X, Y: sj.Y, Z: sj.Z, ZValue: sj.ZValue,
		VizType: sj.VizType, Agg: sj.Agg,
		Task: task, K: sj.K, Drawn: sj.Drawn,
	}
	for _, f := range sj.Filters {
		spec.Filters = append(spec.Filters, frontend.Filter{Attr: f.Attr, Op: f.Op, Value: f.Value})
	}
	return spec, nil
}

// SpecRequest is the body of POST /spec.
type SpecRequest struct {
	Dataset string   `json:"dataset"`
	Spec    SpecJSON `json:"spec"`
	Opt     string   `json:"opt,omitempty"`
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	var req SpecRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d := s.dataset(w, req.Dataset)
	if d == nil {
		return
	}
	d.ctr.specs.Add(1)
	spec, err := req.Spec.toSpec()
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	zqlText, inputs, err := spec.ToZQL()
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.execute(w, r, d, "/spec", zqlText, inputs, req.Opt, zqlText, "")
}

// requestContext derives the execution context for one request: the client's
// connection context, bounded by the per-request X-Timeout header when
// present (a positive Go duration like "250ms") or the server default
// deadline otherwise.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.timeout
	if h := r.Header.Get("X-Timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("bad X-Timeout %q: want a positive Go duration like \"250ms\"", h)
		}
		timeout = d
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// countFailure counts a failed execution, and one its request context cut
// short (deadline or disconnect) as a timeout too.
func (d *Dataset) countFailure(err error) {
	d.ctr.errors.Add(1)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		d.ctr.timeouts.Add(1)
	}
}

// execute runs ZQL text through the dataset's session under the request's
// deadline and writes the response; echoZQL, when non-empty, is included so
// /spec callers can see the translation. A deadline or client disconnect cuts
// the run at the engine's next cancellation point; the 504/499 response then
// carries the partial execution statistics.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, d *Dataset, endpoint, zqlText string, inputs map[string][]float64, optName, echoZQL, explain string) {
	if explain != "" && explain != "plan" && explain != "analyze" {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad explain %q: want \"plan\" or \"analyze\"", explain))
		return
	}
	opt, err := optLevel(d, optName)
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	start := time.Now()
	var res *zexec.Result
	if explain == "plan" {
		res, err = d.session.PlanContext(ctx, zqlText, inputs, opt)
	} else {
		res, err = d.session.QueryContext(ctx, zqlText, inputs, opt)
	}
	s.metrics.observeQuery(endpoint, opt.String(), time.Since(start).Seconds())
	if err != nil {
		d.countFailure(err)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	d.recordProcess(res.Stats.Process)
	resp := QueryResponse{
		Dataset: d.name,
		ZQL:     echoZQL,
		Result:  EncodeResult(res),
		Stats:   EncodeStats(res.Stats),
	}
	if explain != "" {
		// Snapshot the request's live trace (the middleware owns and ends
		// the root; unended spans report elapsed-so-far). The middleware
		// always traces /query, so the trace is only missing if execute is
		// ever reached some other way — then explain simply returns no tree.
		if tr := trace.FromContext(r.Context()).Trace(); tr != nil {
			resp.Trace = tr.Tree()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// RecommendRequest is the body of POST /recommend.
type RecommendRequest struct {
	Dataset string `json:"dataset"`
	X       string `json:"x"`
	Y       string `json:"y"`
	Z       string `json:"z"`
	K       int    `json:"k,omitempty"`
}

// RecommendResponse is the body of POST /recommend responses.
type RecommendResponse struct {
	Dataset         string               `json:"dataset"`
	Recommendations []RecommendationJSON `json:"recommendations"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d := s.dataset(w, req.Dataset)
	if d == nil {
		return
	}
	d.ctr.recommends.Add(1)
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	recs, err := d.session.Recommend(ctx, req.X, req.Y, req.Z, req.K)
	if err != nil {
		d.countFailure(err)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, RecommendResponse{
		Dataset:         d.name,
		Recommendations: EncodeRecommendations(recs),
	})
}

// ColumnInfo describes one column of a served dataset.
type ColumnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// DatasetInfo describes one served dataset: what's loaded (backend, rows,
// zone-map segments, persistence) and its schema.
type DatasetInfo struct {
	Name       string       `json:"name"`
	Backend    string       `json:"backend"`
	Rows       int          `json:"rows"`
	TableBytes int64        `json:"tableBytes"` // Dataset.TableBytes: the table at memory width
	Segments   int          `json:"segments"`
	Appendable bool         `json:"appendable"`
	Opt        string       `json:"opt"`
	Columns    []ColumnInfo `json:"columns"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.List()
	out := struct {
		Datasets []DatasetInfo `json:"datasets"`
	}{Datasets: make([]DatasetInfo, len(list))}
	for i, d := range list {
		info := DatasetInfo{
			Name:       d.name,
			Backend:    d.backend,
			Rows:       d.table.NumRows(),
			TableBytes: d.TableBytes(),
			Segments:   d.Segments(),
			Appendable: d.Appendable(),
			Opt:        d.Opt().String(),
		}
		for _, c := range d.table.Columns() {
			info.Columns = append(info.Columns, ColumnInfo{Name: c.Field.Name, Kind: c.Field.Kind.String()})
		}
		out.Datasets[i] = info
	}
	writeJSON(w, http.StatusOK, out)
}

// AppendRequest is the body of POST /datasets/{name}/append: rows as arrays
// of cells in schema column order — strings for categorical columns, JSON
// numbers for numeric ones (integer columns reject fractional values).
type AppendRequest struct {
	Rows [][]any `json:"rows"`
}

// AppendResponse reports the extended dataset after a successful append.
type AppendResponse struct {
	Dataset  string `json:"dataset"`
	Appended int    `json:"appended"`
	Rows     int    `json:"rows"`
	Segments int    `json:"segments"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req AppendRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBodyBytes))
	dec.DisallowUnknownFields()
	// Numbers decode as json.Number, not float64: int64 values above 2^53
	// would silently lose precision through a float64 round trip.
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	d := s.dataset(w, name)
	if d == nil {
		return
	}
	rows, err := coerceRows(d.Table(), req.Rows)
	if err != nil {
		d.ctr.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	nd, err := s.reg.Append(name, rows)
	if err != nil {
		d.ctr.errors.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotAppendable) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Dataset:  name,
		Appended: len(rows),
		Rows:     nd.Table().NumRows(),
		Segments: nd.Segments(),
	})
}

// CompactRequest is the (optional) body of POST /datasets/{name}/compact:
// cluster columns in significance order. An empty body (or empty cols) lets
// the server pick from live skip provenance and dictionary statistics.
type CompactRequest struct {
	Cols []string `json:"cols,omitempty"`
}

// CompactResponse reports one completed compaction.
type CompactResponse struct {
	Dataset string `json:"dataset"`
	// Cols are the cluster columns used (echoed or auto-picked).
	Cols []string `json:"cols"`
	// Rows and Segments describe the rewritten generation; UnsortedBefore is
	// how many segments were out of cluster order before the rewrite.
	Rows           int   `json:"rows"`
	Segments       int   `json:"segments"`
	UnsortedBefore int   `json:"unsortedBefore"`
	Generation     int64 `json:"generation"`
	DurationMs     int64 `json:"durationMs"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req CompactRequest
	// The trigger needs no parameters, so tolerate an empty body; a non-empty
	// body must decode strictly like every other endpoint.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	d := s.dataset(w, name)
	if d == nil {
		return
	}
	for _, col := range req.Cols {
		if d.Table().Column(col) == nil {
			d.ctr.errors.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("no column %q in dataset %q", col, name))
			return
		}
	}
	start := time.Now()
	nd, res, err := s.reg.Compact(name, req.Cols)
	if err != nil {
		d.ctr.errors.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotCompactable) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Dataset:        name,
		Cols:           res.Cols,
		Rows:           res.Rows,
		Segments:       res.Segments,
		UnsortedBefore: res.UnsortedBefore,
		Generation:     nd.ctr.generation.Load(),
		DurationMs:     time.Since(start).Milliseconds(),
	})
}

// coerceNumber converts one JSON number onto a numeric column kind. Integer
// columns parse the literal as int64 directly (full 64-bit precision — no
// float64 round trip) and accept float-formatted values only when they are
// integral and below the float64 exact-integer bound.
func coerceNumber(f dataset.Field, v json.Number) (dataset.Value, error) {
	switch f.Kind {
	case dataset.KindInt:
		if i, err := v.Int64(); err == nil {
			return dataset.IV(i), nil
		}
		fv, err := v.Float64()
		if err != nil || fv != math.Trunc(fv) || math.Abs(fv) > 1<<53 {
			return dataset.Value{}, fmt.Errorf("column %q is int, got %v", f.Name, v)
		}
		return dataset.IV(int64(fv)), nil
	case dataset.KindFloat:
		fv, err := v.Float64()
		if err != nil {
			return dataset.Value{}, fmt.Errorf("column %q: bad number %v: %w", f.Name, v, err)
		}
		return dataset.FV(fv), nil
	default:
		return dataset.Value{}, fmt.Errorf("column %q is string, got number %v", f.Name, v)
	}
}

// coerceRows converts wire cells onto the dataset schema, strictly: string
// columns take JSON strings, numeric columns take JSON numbers, and integer
// columns additionally require integral values.
func coerceRows(t *dataset.Table, raw [][]any) ([]dataset.Row, error) {
	cols := t.Columns()
	rows := make([]dataset.Row, len(raw))
	for ri, rec := range raw {
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("row %d has %d cells, schema has %d columns", ri, len(rec), len(cols))
		}
		row := make(dataset.Row, len(cols))
		for j, cell := range rec {
			f := cols[j].Field
			switch v := cell.(type) {
			case string:
				if f.Kind != dataset.KindString {
					return nil, fmt.Errorf("row %d: column %q is %s, got string %q", ri, f.Name, f.Kind, v)
				}
				row[j] = dataset.SV(v)
			case json.Number:
				val, err := coerceNumber(f, v)
				if err != nil {
					return nil, fmt.Errorf("row %d: %w", ri, err)
				}
				row[j] = val
			default:
				return nil, fmt.Errorf("row %d: column %q: unsupported cell %T", ri, f.Name, cell)
			}
		}
		rows[ri] = row
	}
	return rows, nil
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Datasets map[string]DatasetStats `json:"datasets"`
	}{Datasets: make(map[string]DatasetStats)}
	for _, d := range s.reg.List() {
		out.Datasets[d.name] = d.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}
