package server

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// idleSweeps is how many consecutive GC cycles a file-backed dataset must go
// without starting a scan before its loaded blocks go back to the file
// (zpack.Reader.Sweep). Every request that misses the result cache starts a
// scan, and the heaviest such request, a task_cold one, allocates about 2.8
// cycles' worth on average: a dataset in use does not pass 4 cycles without a
// scan (the benchmark's cache-missing workloads release no block), while one
// answered from the cache alone (explore_hot) gives its blocks back a few
// requests in.
const idleSweeps = 4

// An IdleSweeper runs the idle sweep of every dataset served from a file
// (see idleSweeps) once after each completed GC cycle, until Stop. It leaves
// the collector's settings alone: the tables live off the Go heap, so the
// process's own GOGC already paces a heap of what requests churn. Only a
// server process starts one.
type IdleSweeper struct {
	reg *Registry

	mu      sync.Mutex
	stopped bool
}

// gcSentinel is garbage from the moment it is armed, so its finalizer runs
// once after each completed GC cycle and arms the next one. It holds a
// pointer, which keeps it out of the tiny allocator: that packs pointer-free
// objects under 16 bytes into shared blocks whose finalizers may never run.
type gcSentinel struct{ s *IdleSweeper }

// StartIdleSweeper hands the memory loading freed back to the OS
// (debug.FreeOSMemory, which collects first), so an idle server holds only
// what it serves, and then sweeps reg's datasets after every GC cycle until
// Stop.
func StartIdleSweeper(reg *Registry) *IdleSweeper {
	s := &IdleSweeper{reg: reg}
	debug.FreeOSMemory()
	s.arm()
	return s
}

// Stop ends the sweeps. It returns once no further sweep can start.
func (s *IdleSweeper) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
}

func (s *IdleSweeper) arm() {
	runtime.SetFinalizer(&gcSentinel{s}, func(g *gcSentinel) { g.s.onGC() })
}

func (s *IdleSweeper) onGC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.reg.sweepIdle()
	s.arm()
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
