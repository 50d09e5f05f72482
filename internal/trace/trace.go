// Package trace is the dependency-free span library behind per-query
// execution tracing: EXPLAIN ANALYZE trees, the slow-query log, and the
// zen_stage_duration_seconds histograms all render from the same spans, so
// they can never disagree about where a request's time went.
//
// The design optimizes for the common case — tracing OFF — being free. A nil
// *Span is a fully valid no-op recorder: every method has a nil receiver
// fast path, so an uninstrumented request pays one nil-check per span site
// and zero allocations (checked by TestNoopZeroAlloc). Instrumented requests
// pay a mutex and a few small allocations per span, which is noise next to
// the work the span measures.
//
// Spans form a tree. A root is minted by New (which also assigns the W3C
// trace ID, honoring an inbound traceparent header via ParseTraceparent);
// children attach with StartChild and may be created concurrently from many
// goroutines — the scatter-gather engine does exactly that. Children are
// bounded per span (MaxChildren); beyond the bound the child count is still
// recorded and surfaces as droppedChildren in the rendered tree, so a
// truncated trace is visibly truncated. Timing uses the monotonic clock
// (time.Now/Since).
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// MaxChildren bounds the children recorded per span. The bound keeps a
// pathological request (thousands of segments, huge batches) from turning
// its own trace into the memory problem; dropped children are counted and
// rendered as a truncation marker.
const MaxChildren = 64

// attrKind discriminates the typed attribute value.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed key/value annotation on a span. Values are typed fields
// rather than an interface so that setting an attribute on a no-op (nil)
// span never boxes — the zero-allocation guarantee covers attr sites too.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
	b    bool
}

// Value returns the attribute's value as an any, for JSON rendering.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.b
	default:
		return a.s
	}
}

// Trace is one request's span tree plus its correlation identity: the W3C
// trace ID (inbound traceparent or freshly minted) and the serving layer's
// request ID, stamped into the root so log lines, slow-log entries, and
// EXPLAIN output all join on the same keys.
type Trace struct {
	// TraceID is 32 lowercase hex digits (the W3C trace-id field).
	TraceID string
	// RequestID is the serving layer's X-Request-ID, when there is one.
	RequestID string
	// Root is the request-level span every stage hangs off.
	Root *Span

	ids atomic.Uint64 // span ID allocator
}

// New mints a trace whose root span is started now. traceID, when non-empty,
// is adopted verbatim (the inbound traceparent case); otherwise a fresh
// 16-byte random ID is generated.
func New(rootName, traceID string) *Trace {
	if traceID == "" {
		var buf [16]byte
		if _, err := rand.Read(buf[:]); err == nil {
			traceID = hex.EncodeToString(buf[:])
		} else {
			traceID = "00000000000000000000000000000000"
		}
	}
	t := &Trace{TraceID: traceID}
	t.Root = &Span{trace: t, id: t.ids.Add(1), name: rootName, start: time.Now()}
	return t
}

// Span is one timed stage of a request. The zero *Span (nil) is a valid
// no-op: all methods are safe and free on it. A non-nil Span is safe for
// concurrent use — children may be started and attributes set from many
// goroutines.
type Span struct {
	id    uint64
	name  string
	start time.Time
	trace *Trace

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
	dropped  int
}

// Trace returns the owning trace, or nil on a no-op span.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// StartChild starts a new child span. On a nil receiver it returns nil (the
// no-op propagates down the tree for free). Children beyond MaxChildren are
// not recorded but are counted, so the rendered tree carries a truncation
// marker instead of silently looking complete.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), trace: s.trace}
	if c.trace != nil {
		c.id = c.trace.ids.Add(1)
	}
	s.mu.Lock()
	if len(s.children) >= MaxChildren {
		s.dropped++
		s.mu.Unlock()
		// The child still times and carries attrs — it is just not retained.
		return c
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Multiple Ends keep the first. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Duration returns the span's duration: its final duration once ended, the
// running elapsed time before that, 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span name, "" on nil.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetStr records a string attribute. Nil-safe and allocation-free when nil.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: v})
	s.mu.Unlock()
}

// SetInt records an integer attribute. Nil-safe and allocation-free when nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: v})
	s.mu.Unlock()
}

// SetFloat records a float attribute. Nil-safe and allocation-free when nil.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrFloat, f: v})
	s.mu.Unlock()
}

// SetBool records a boolean attribute. Nil-safe and allocation-free when nil.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrBool, b: v})
	s.mu.Unlock()
}

// ctxKey is the private context key spans travel under.
type ctxKey struct{}

// WithSpan returns a context carrying sp as the current parent span. A nil
// sp returns ctx unchanged, so the no-op recorder costs nothing to thread.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current parent span, or nil when the request is
// untraced — the single nil-check every instrumented site starts with.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ParseTraceparent extracts the trace-id of a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"), reporting
// whether the header was well-formed. Only the trace ID is adopted; parent
// span IDs are not modeled.
func ParseTraceparent(h string) (traceID string, ok bool) {
	// version(2) - traceid(32) - parentid(16) - flags(2), dashes between.
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	if !isHex(h[:2]) || !isHex(h[3:35]) || !isHex(h[36:52]) || !isHex(h[53:]) {
		return "", false
	}
	id := h[3:35]
	if id == "00000000000000000000000000000000" {
		return "", false
	}
	return id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
