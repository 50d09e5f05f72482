package server

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/trace"
)

// DefaultSlowQueryThreshold is the slow-query log's default capture
// threshold (zserved's -slow-query-ms default).
const DefaultSlowQueryThreshold = 200 * time.Millisecond

// DefaultSlowLogKeep is how many slow-query entries the ring buffer retains.
const DefaultSlowLogKeep = 64

// SlowEntry is one captured slow request: identity (request + trace IDs, the
// join keys against access-log lines), what ran (canonical SQL, lifted from
// the span tree's plan spans), and the full span tree for stage-level
// drill-down.
type SlowEntry struct {
	Time       string      `json:"time"`
	RequestID  string      `json:"requestId"`
	TraceID    string      `json:"traceId"`
	Path       string      `json:"path"`
	Status     int         `json:"status"`
	DurationMs float64     `json:"durationMs"`
	SQL        []string    `json:"sql,omitempty"`
	Trace      *trace.Tree `json:"trace"`
}

// slowLog is a bounded ring of the most recent slow requests. Writes are one
// mutex acquisition; the ring never allocates after warm-up beyond the
// entries themselves.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowEntry
	next    int
	full    bool
}

func newSlowLog(keep int) *slowLog {
	if keep <= 0 {
		keep = DefaultSlowLogKeep
	}
	return &slowLog{entries: make([]SlowEntry, keep)}
}

func (l *slowLog) add(e SlowEntry) {
	l.mu.Lock()
	l.entries[l.next] = e
	l.next++
	if l.next == len(l.entries) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// snapshot returns the retained entries, newest first.
func (l *slowLog) snapshot() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.entries)
	}
	out := make([]SlowEntry, 0, n)
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.entries)
		}
		out = append(out, l.entries[idx])
	}
	return out
}

// slowEntryFrom assembles a slow-log entry from a finished request's span
// tree, lifting each plan span's canonical SQL (bounded).
func slowEntryFrom(tree *trace.Tree, path string, status int, start time.Time, elapsed time.Duration) SlowEntry {
	e := SlowEntry{
		Time:       start.UTC().Format(time.RFC3339Nano),
		RequestID:  tree.RequestID,
		TraceID:    tree.TraceID,
		Path:       path,
		Status:     status,
		DurationMs: float64(elapsed.Microseconds()) / 1000,
		Trace:      tree,
	}
	const maxSQL = 8
	trace.Walk(tree.Root, func(n *trace.Node) {
		if n.Name != "plan" {
			return
		}
		if sql, ok := n.Attrs["sql"].(string); ok && len(e.SQL) < maxSQL {
			e.SQL = append(e.SQL, sql)
		}
	})
	return e
}

// handleSlowLog serves GET /debug/slowlog: the capture threshold and the
// retained entries, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		ThresholdMs int64       `json:"thresholdMs"`
		Entries     []SlowEntry `json:"entries"`
	}{ThresholdMs: s.slowThreshold.Milliseconds()}
	if s.slow != nil {
		out.Entries = s.slow.snapshot()
	}
	if out.Entries == nil {
		out.Entries = []SlowEntry{}
	}
	writeJSON(w, http.StatusOK, out)
}
