package server

import (
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
)

// minChurnBytes is the Go runtime's own minimum heap goal at GOGC=100: the
// pacer never plans for less churn than this, so a program whose request
// path allocates little does not collect after every few requests.
const minChurnBytes = 4 << 20

// idleSweeps is how many consecutive GC cycles a file-backed dataset must go
// without starting a scan before its loaded blocks go back to the file
// (zpack.Reader.Sweep). Every request that misses the result cache starts a
// scan, and the heaviest such request, a task_cold one, allocates about 2.4
// cycles' worth: a dataset in use never passes 4 cycles without a scan, while
// one answered from the cache alone (explore_hot, about 1.2 cycles a
// request) gives its blocks back a few requests in.
const idleSweeps = 4

// A GCPacer keeps the collector from reserving headroom for the tables a
// Registry pins. Go grows the heap by GOGC percent of everything live, but a
// served table is immutable, pointer-free and never becomes garbage; so after
// every completed cycle the pacer sets the GC percent that gives the heap the
// headroom the process's own GOGC would give a program whose live heap is
// only what churns. With nothing registered it leaves GOGC as it found it,
// with GOGC=off or 0 it does nothing at all, and it never touches
// GOMEMLIMIT. Only a server process starts one: the setting is process-wide.
//
// After every cycle it also runs the idle sweep of each dataset served from
// a file (see idleSweeps). The bytes it counts as pinned stay the tables'
// whole size whatever is resident: a released block's array stays allocated,
// so the live heap does not shrink when its pages go back.
type GCPacer struct {
	reg  *Registry
	base int // the process's GOGC when the pacer started

	mu      sync.Mutex
	stopped bool
	last    paced
}

// paced is what one pace read and set: the n-th since the pacer started.
type paced struct {
	n            int
	live, pinned int64
	percent      int
}

// gcSentinel is garbage from the moment it is armed, so its finalizer runs
// once after each completed GC cycle and arms the next one. It holds a
// pointer, which keeps it out of the tiny allocator: that packs pointer-free
// objects under 16 bytes into shared blocks whose finalizers may never run.
type gcSentinel struct{ p *GCPacer }

// StartGCPacer collects once, so the first percent is computed from a live
// heap measured after loading rather than during it, and then paces reg's
// process until Stop.
func StartGCPacer(reg *Registry) *GCPacer {
	p := &GCPacer{reg: reg, base: int(runtimeInt("/gc/gogc:percent"))}
	if p.base > 0 {
		runtime.GC()
		p.onGC()
	}
	return p
}

// Stop ends pacing and restores the GC percent the process started with. It
// returns once no further change to the setting can happen.
func (p *GCPacer) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.stopped && p.base > 0 {
		debug.SetGCPercent(p.base)
	}
	p.stopped = true
}

func (p *GCPacer) arm() {
	runtime.SetFinalizer(&gcSentinel{p}, func(s *gcSentinel) { s.p.onGC() })
}

func (p *GCPacer) onGC() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.pace()
	p.reg.sweepIdle()
	p.arm()
}

// sweepIdle runs one idle sweep of every dataset served from a file and
// counts the blocks it releases.
func (r *Registry) sweepIdle() {
	for _, d := range r.List() {
		if d.packR != nil {
			d.ctr.released.Add(int64(d.packR.Sweep(idleSweeps)))
		}
	}
}

// pace sets the GC percent from the live heap the last cycle marked and the
// bytes the registry's tables hold now, and records all three. The caller
// holds p.mu.
func (p *GCPacer) pace() {
	var pinned int64
	for _, d := range p.reg.List() {
		pinned += d.Table().SizeBytes()
	}
	live := runtimeInt("/gc/heap/live:bytes")
	percent := gcPercent(p.base, live, pinned)
	debug.SetGCPercent(percent)
	p.last = paced{n: p.last.n + 1, live: live, pinned: pinned, percent: percent}
}

// runtimeInt reads one integer metric, signed so that the GC percent reads
// -1 when the collector is off.
func runtimeInt(name string) int64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// gcPercent is the GC percent that gives a heap of live bytes, pinned of
// which never become garbage, the headroom GOGC=base gives the rest:
// base/100 × max(live − pinned, minChurnBytes), as a percent of live,
// rounded up and clamped to [1, base]. A base <= 0 (GOGC=off or 0) and an
// unmeasured heap are returned unchanged.
func gcPercent(base int, live, pinned int64) int {
	if base <= 0 || live <= 0 {
		return base
	}
	churn := max(live-pinned, minChurnBytes)
	g := math.Ceil(float64(base) * float64(churn) / float64(live))
	return int(max(1, min(g, float64(base))))
}
