package zpack

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// scanGate is shared by a Reader and every successor that adopts its storage
// (see Reopen): one lineage over one set of column arrays. Whatever reads
// those arrays holds the gate shared — a scan (BeginScan), an adoption, the
// DistinctSorted hook, LoadAll — and a release takes it exclusively, but only
// with TryLock: nothing ever waits to take it exclusively, so a holder may
// take it shared again without deadlock, and a release never delays a scan
// that has started.
type scanGate struct {
	mu    sync.RWMutex
	takes atomic.Int64 // shared holds taken so far
	// pinned[j] is set once column j was loaded for a reader that holds its
	// array outside any hold of the gate: it is never released.
	pinned []atomic.Bool

	sweepMu sync.Mutex
	seen    int64 // takes at the previous sweep
	idle    int   // consecutive idle sweeps
}

func newScanGate(ncols int) *scanGate {
	return &scanGate{pinned: make([]atomic.Bool, ncols)}
}

// hold takes the gate shared; the caller calls g.mu.RUnlock when done.
func (g *scanGate) hold() {
	g.takes.Add(1)
	g.mu.RLock()
}

// BeginScan holds r's lineage for a scan: until the matching EndScan, no block
// of it goes back to the file. It is the column store's engine.ScanGate, held
// once per batch.
func (r *Reader) BeginScan() { r.gate.hold() }

// EndScan ends a hold BeginScan took.
func (r *Reader) EndScan() { r.gate.mu.RUnlock() }

// Release hands every block of r that can be read again back to the OS, if
// nothing of r's lineage is in flight: no scan, no Reopen adopting its
// storage, no DistinctSorted hook or LoadAll. It returns how many blocks went
// back to unloaded, and whether the lineage was free. A released block's next
// Load reads it again, checksummed, as the first did. Kept: a superseded
// Reader's blocks (its successor releases the shared ones), the rows of a
// partial tail adopted from a predecessor (this Reader cannot read them), and
// the columns a DistinctSorted hook or LoadAll loaded; everything, where
// releasePages gives no memory back.
func (r *Reader) Release() (int, bool) {
	if !r.gate.mu.TryLock() {
		return 0, false
	}
	defer r.gate.mu.Unlock()
	return r.release(), true
}

// Sweep is one idle sweep of r's lineage: the lineage is idle at it when it
// took the gate zero times since the previous sweep and the gate is free, and
// at the after-th consecutive idle sweep, and every one after, r releases
// what it can (Release). It returns the blocks released.
func (r *Reader) Sweep(after int) int {
	g := r.gate
	g.sweepMu.Lock()
	defer g.sweepMu.Unlock()
	takes := g.takes.Load()
	if takes != g.seen || !g.mu.TryLock() {
		g.seen, g.idle = takes, 0
		return 0
	}
	defer g.mu.Unlock()
	if g.idle++; g.idle < after {
		return 0
	}
	return r.release()
}

// release clears the load bit of every releasable block and hands its rows'
// pages back: per column, one releasePages over each run of segments whose
// rows this Reader reads in full, loaded or not, since a column's segments
// are contiguous. The caller holds the gate exclusively.
func (r *Reader) release() int {
	if !canRelease || r.adopted.Load() {
		return 0
	}
	n := 0
	for j, c := range r.table.Columns() {
		if r.gate.pinned[j].Load() {
			continue
		}
		b, width := arrayBytes(c)
		start, end := -1, 0
		for s, l := range r.loads {
			lo := s * engine.SegmentSize
			if l.from != lo { // an adopted tail: rows [lo, from) came from a predecessor
				if start >= 0 {
					releasePages(b[start*width : end*width])
				}
				start = -1
				continue
			}
			if l.has(j) {
				l.mu.Lock()
				l.unmark(j)
				l.mu.Unlock()
				n++
			}
			if start < 0 {
				start = lo
			}
			end = lo + r.foot.segs[s].rows
		}
		if start >= 0 {
			releasePages(b[start*width : end*width])
		}
	}
	return n
}
