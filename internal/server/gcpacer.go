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

// A GCPacer keeps the collector from reserving headroom for the tables a
// Registry pins. Go grows the heap by GOGC percent of everything live, but a
// served table is immutable, pointer-free and never becomes garbage; so after
// every completed cycle the pacer sets the GC percent that gives the heap the
// headroom the process's own GOGC would give a program whose live heap is
// only what churns. With nothing registered it leaves GOGC as it found it,
// with GOGC=off or 0 it does nothing at all, and it never touches
// GOMEMLIMIT. Only a server process starts one: the setting is process-wide.
type GCPacer struct {
	reg  *Registry
	base int // the process's GOGC when the pacer started

	mu      sync.Mutex
	stopped bool
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
		p.pace()
		p.arm()
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
	p.arm()
}

// pace sets the GC percent from the live heap the last cycle marked and the
// bytes the registry's tables hold now.
func (p *GCPacer) pace() {
	var pinned int64
	for _, d := range p.reg.List() {
		pinned += d.Table().SizeBytes()
	}
	debug.SetGCPercent(gcPercent(p.base, runtimeInt("/gc/heap/live:bytes"), pinned))
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
