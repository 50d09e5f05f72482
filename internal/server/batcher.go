package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/trace"
)

// ErrOverloaded is returned when a dataset's admission queue is full: the
// submission is shed instead of queued, so admitted requests keep bounded
// latency under overload. The HTTP layer maps it to 429 + Retry-After.
var ErrOverloaded = errors.New("server: dataset is overloaded (admission queue full)")

// batcher coalesces concurrent ExecuteBatch requests over one dataset into
// shared engine batches. Each submission parks on a queue; a single drain
// goroutine repeatedly takes EVERYTHING queued and executes it as one
// ExecuteBatch call on the store, so N requests arriving while a scan is in
// flight ride the next scan together instead of triggering N scans. One
// drain at a time maximizes coalescing; the store still parallelizes inside
// each batch. This is the serving-layer analog of the paper's inter-task
// batching: the batch boundary is "whatever the server has queued right now"
// instead of one ZQL query.
//
// The queue doubles as the admission-control point: when more than maxQueue
// submissions are already parked, new arrivals are shed with ErrOverloaded
// rather than queued. Shedding here (not at HTTP ingress) means cache hits —
// which never reach the batcher — are always admitted.
type batcher struct {
	store    engine.DB
	maxQueue int // parked-submission bound; <= 0 is unbounded

	mu       sync.Mutex
	pending  []*submission
	draining bool // a drain goroutine is running

	// ctr is shared with the batchers of the dataset's successors, as the
	// result cache's counters are (ResultCache.InheritStats).
	ctr *batchCounters
}

// batchCounters are a batcher's cumulative counters.
type batchCounters struct {
	submissions atomic.Int64 // ExecuteBatch calls admitted through the queue
	batches     atomic.Int64 // engine batches actually issued
	coalesced   atomic.Int64 // submissions that shared an engine batch with another
	shed        atomic.Int64 // submissions rejected because the queue was full
}

// submission is one caller's batch waiting to be folded into an engine batch.
type submission struct {
	ctx     context.Context
	plans   []*engine.Plan
	wait    *trace.Span // queue.wait span: park time until a drain takes it
	results []*engine.Result
	err     error
	done    chan struct{}
}

// newBatcher builds a coalescer over store with at most maxQueue submissions
// parked (<= 0 means unbounded).
func newBatcher(store engine.DB, maxQueue int) *batcher {
	return &batcher{store: store, maxQueue: maxQueue, ctr: &batchCounters{}}
}

// submit runs plans through the coalescing queue and blocks until results
// are available (results align with plans), the queue sheds the submission
// (ErrOverloaded), or ctx is done. A submitter that gives up while parked is
// removed from the queue; one that gives up mid-flight returns immediately
// while the shared batch keeps serving its other riders — the batch's merged
// context observes the abandonment, so a batch whose every rider is gone is
// cancelled at the engine's next cancellation point.
func (b *batcher) submit(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &submission{ctx: ctx, plans: plans, done: make(chan struct{})}
	// queue.wait measures park time: from admission until the drain takes
	// the submission. The access log subtracts its total from request latency
	// to split queue wait from execution.
	s.wait = trace.FromContext(ctx).StartChild("queue.wait")
	b.mu.Lock()
	if b.maxQueue > 0 && len(b.pending) >= b.maxQueue {
		b.ctr.shed.Add(1)
		b.mu.Unlock()
		s.wait.SetBool("shed", true)
		s.wait.End()
		return nil, ErrOverloaded
	}
	b.pending = append(b.pending, s)
	b.ctr.submissions.Add(1)
	if !b.draining {
		b.draining = true
		go b.drain()
	}
	b.mu.Unlock()
	select {
	case <-s.done:
		return s.results, s.err
	case <-ctx.Done():
		// Still parked? Unpark it so a dead submission can't occupy queue
		// bound or ride a future batch. If a drain already took it, the
		// batch's close(done) on the abandoned submission is harmless.
		b.mu.Lock()
		for i, q := range b.pending {
			if q == s {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		s.wait.End()
		return nil, ctx.Err()
	}
}

// queueDepth reports the submissions currently parked — the /metrics queue
// gauge.
func (b *batcher) queueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// drain serves queued submissions until the queue is empty, then exits. The
// draining flag is cleared under the same lock that guards the queue, so a
// submission is never left behind: either the running drain sees it, or its
// submitter sees no drain and starts one.
func (b *batcher) drain() {
	for {
		b.mu.Lock()
		if len(b.pending) == 0 {
			b.draining = false
			b.mu.Unlock()
			return
		}
		batch := b.pending
		b.pending = nil
		b.mu.Unlock()
		b.runBatch(batch)
	}
}

// mergedContext derives the context a coalesced engine batch runs under:
// done only when EVERY rider's context is done. Cancelling the shared batch
// because ONE rider gave up would poison its innocent neighbors; conversely
// a batch all of whose riders are gone is pure waste and stops at the
// engine's next cancellation point. The returned release func must be called
// after the batch executes: it detaches the AfterFunc watchers from
// long-lived rider contexts so a batch leaves no goroutines or callbacks
// behind (the deadline test counts goroutines across exactly this path).
func mergedContext(subs []*submission) (context.Context, func()) {
	if len(subs) == 1 {
		return subs[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(subs)))
	stops := make([]func() bool, 0, len(subs))
	for _, s := range subs {
		stops = append(stops, context.AfterFunc(s.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// runBatch executes the coalesced submissions as one engine batch and deals
// the results back out. The engine reports a single error for a whole batch;
// to keep one request's bad plan from failing its neighbors, an error on a
// coalesced batch falls back to executing each submission separately under
// its own context.
func (b *batcher) runBatch(subs []*submission) {
	total := 0
	for _, s := range subs {
		total += len(s.plans)
	}
	all := make([]*engine.Plan, 0, total)
	for _, s := range subs {
		all = append(all, s.plans...)
		// The submission stops waiting the moment a drain takes it; how many
		// neighbors it rode with tells the trace reader whether coalescing
		// helped or a lone request just queued behind a busy drain.
		s.wait.SetInt("riders", int64(len(subs)))
		s.wait.SetBool("coalesced", len(subs) > 1)
		s.wait.End()
	}
	ctx, release := mergedContext(subs)
	if len(subs) > 1 {
		// The merged context is rooted at Background; re-attach the first
		// rider's span so engine scan spans still land in a trace. Riders
		// other than the first see the shared batch's cost only as wall time —
		// attributing one shared scan to N trees would double-count.
		ctx = trace.WithSpan(ctx, trace.FromContext(subs[0].ctx))
	}
	results, err := b.execute(ctx, all)
	release()
	if err != nil && len(subs) > 1 {
		// Accounting: the failed shared attempt saved nothing; what the
		// engine effectively served is one batch per submission.
		b.ctr.batches.Add(int64(len(subs)))
		for _, s := range subs {
			s.results, s.err = b.execute(s.ctx, s.plans)
			close(s.done)
		}
		return
	}
	b.ctr.batches.Add(1)
	if len(subs) > 1 {
		b.ctr.coalesced.Add(int64(len(subs)))
	}
	off := 0
	for _, s := range subs {
		if err != nil {
			s.err = err
		} else {
			s.results = results[off : off+len(s.plans) : off+len(s.plans)]
		}
		off += len(s.plans)
		close(s.done)
	}
}

// execute calls the engine, containing any panic as an error. Execution runs
// on the batcher's drain goroutine, outside net/http's per-connection
// recover: an unrecovered panic here would kill the whole server, and the
// parked submitters — blocked on their done channels — would hang forever.
func (b *batcher) execute(ctx context.Context, plans []*engine.Plan) (results []*engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: engine panic: %v", r)
		}
	}()
	return b.store.ExecuteBatch(ctx, plans)
}

// BatchStats is a point-in-time snapshot of coalescing effectiveness and
// admission-control pressure.
type BatchStats struct {
	// Submissions is the number of ExecuteBatch calls admitted through the
	// queue.
	Submissions int64 `json:"submissions" metric:"zen_coalesce_submissions_total,counter" help:"Engine submissions admitted through the coalescing queue."`
	// Batches is the number of engine batches that effectively served the
	// submissions (a failed shared attempt counts as its per-submission
	// fallback executions); Submissions - Batches is scans saved by
	// coalescing, and is never negative.
	Batches int64 `json:"batches" metric:"zen_coalesce_batches_total,counter" help:"Engine batches that served the submissions."`
	// Coalesced is the number of submissions that successfully shared an
	// engine batch with at least one other submission.
	Coalesced int64 `json:"coalesced" metric:"zen_coalesce_coalesced_total,counter" help:"Submissions that shared an engine batch with at least one other."`
	// Shed is the number of submissions rejected with ErrOverloaded because
	// the admission queue was at its bound.
	Shed int64 `json:"shed" metric:"zen_requests_shed_total,counter" help:"Submissions rejected with 429 because the admission queue was full."`
	// QueueDepth is the number of submissions parked right now.
	QueueDepth int `json:"queueDepth" metric:"zen_queue_depth,gauge" help:"Submissions parked at the admission queue right now."`
}

// stats snapshots the coalescing counters.
func (b *batcher) stats() BatchStats {
	// Batches and Coalesced first: a submission is counted before its batch,
	// so Submissions read after them is never the smaller.
	st := BatchStats{Batches: b.ctr.batches.Load(), Coalesced: b.ctr.coalesced.Load()}
	st.Submissions, st.Shed, st.QueueDepth = b.ctr.submissions.Load(), b.ctr.shed.Load(), b.queueDepth()
	return st
}
