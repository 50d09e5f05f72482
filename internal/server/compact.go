package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/compact"
	"repro/internal/zpack"
)

// ErrNotCompactable marks a compaction request against a dataset not served
// from a .zpack file; the HTTP layer maps it to 409 Conflict.
var ErrNotCompactable = errors.New("server: dataset is not compactable (only datasets served from a .zpack file can be re-clustered)")

func nowNano() int64 { return time.Now().UnixNano() }

// refreshUnsorted recomputes the unsorted-segments gauge from the current
// generation's zone maps: segments out of primary-cluster-column order. The
// reference column is the last compaction's primary column when one exists,
// otherwise the automatic pick over current provenance — so the gauge answers
// "how much would the compactor help right now" from the first append on.
// Metadata-only: zone maps and dictionaries live in the footer, no segment is
// read from disk.
func (d *Dataset) refreshUnsorted() {
	var col string
	if cols := d.ctr.lastCols.Load(); cols != nil && len(*cols) > 0 {
		col = (*cols)[0]
	} else {
		prov := d.store.Stats().SkipProvenance
		if cols := compact.PickCols(d.packR, prov, 1); len(cols) > 0 {
			col = cols[0]
		}
	}
	if col == "" {
		d.ctr.unsortedSegs.Store(0)
		return
	}
	d.ctr.clusterCol.Store(&col)
	if n, err := compact.Unsorted(d.packR, col); err == nil {
		d.ctr.unsortedSegs.Store(int64(n))
	}
}

// Compact rewrites a zpack-backed dataset re-clustered on cols (empty = pick
// from live skip provenance and dictionary statistics) and swaps the new
// generation into the registry. It holds the append lock end to end — the
// file cannot grow between the snapshot the rewrite sorts and the rename that
// replaces it, so no appended row is ever lost to a concurrent compaction.
//
// The cutover extends the append swap recipe across the inode boundary:
//
//  1. compact.File commits the re-clustered generation under the same path
//     (temp + fsync + atomic rename + directory sync); the old generation's
//     committed bytes were never touched, so in-flight queries keep reading
//     their snapshot through the descriptors they already hold;
//  2. the old writer's descriptor now points at the unlinked old inode and is
//     closed immediately — leaving it appendable would lose rows silently;
//     until the new writer opens, the dataset reports not-appendable;
//  3. a fresh reader (Reopen detects the new inode and opens its own
//     descriptor) and writer open over the new generation, and the successor
//     stack swaps into the registry exactly like an append swap;
//  4. only the superseded generation's descriptor is kept (its Reader is the
//     collector's once its queries finish), and
//     the descriptor of the generation before it is closed: compactions are
//     minutes apart, so every query that started against it is long
//     finished — bounding retained descriptors (and unlinked-inode disk) to
//     one superseded generation per dataset.
//
// On any error after the rename the registry keeps serving the old snapshot
// read-only (packW nil); reads stay correct, and the next successful append
// or compaction restores writability.
func (r *Registry) Compact(name string, cols []string) (*Dataset, compact.Result, error) {
	r.appendMu.Lock()
	defer r.appendMu.Unlock()
	d := r.Get(name)
	if d == nil {
		return nil, compact.Result{}, fmt.Errorf("server: no dataset %q", name)
	}
	if d.packPath == "" {
		return nil, compact.Result{}, fmt.Errorf("%w: %q has backend %q", ErrNotCompactable, name, d.backend)
	}
	prov := d.store.Stats().SkipProvenance
	start := time.Now()
	res, err := compact.File(d.packPath, compact.Options{Cols: cols, Provenance: prov})
	if err != nil {
		d.ctr.compactFails.Add(1)
		return nil, res, err
	}
	// The path names a new inode from here on. Readiness gates the swap
	// window like an append does.
	r.swaps.Add(1)
	defer r.swaps.Add(-1)
	if w := d.packW.Swap(nil); w != nil {
		w.Discard() // descriptor of the unlinked old generation
	}
	fresh, err := d.packR.Reopen() // detects the new inode; owns a new descriptor
	if err != nil {
		d.ctr.compactFails.Add(1)
		return nil, res, err
	}
	w, err := zpack.OpenAppend(d.packPath)
	if err != nil {
		fresh.Close()
		d.ctr.compactFails.Add(1)
		return nil, res, err
	}
	nd, err := r.swapSuccessor(d, fresh, w, d.packR.Detach(), func(c *dsCounters) {
		c.compactions.Add(1)
		c.generation.Add(1)
		c.rowsRewritten.Add(int64(res.Rows))
		c.lastCompactNs.Store(time.Since(start).Nanoseconds())
		resCols := append([]string(nil), res.Cols...)
		c.lastCols.Store(&resCols)
	})
	if err != nil {
		fresh.Close()
		w.Discard()
		d.ctr.compactFails.Add(1)
		return nil, res, err
	}
	if d.packRetired != nil {
		d.packRetired.Close()
	}
	return nd, res, nil
}

// CompactorConfig tunes the background compactor.
type CompactorConfig struct {
	// Interval is the sweep cadence.
	Interval time.Duration
	// Threshold is the minimum unsorted-segments gauge that triggers a
	// rewrite (<= 0 means 1: any disorder at all).
	Threshold int
	// Cols pins the cluster columns for every dataset; empty picks per
	// dataset from live provenance and dictionary statistics.
	Cols []string
	// Quiesce is the pause-during-append debounce: a dataset whose last
	// append is more recent than this is skipped, so compaction (which holds
	// the append lock for the whole rewrite) never lands in the middle of an
	// ingest burst. 0 means Interval.
	Quiesce time.Duration
	// Logf, when set, receives one line per compaction and per failure.
	Logf func(format string, args ...any)
}

// Compactor periodically rewrites zpack-backed datasets whose appended tails
// have accumulated disorder. One Sweep examines every dataset: zpack-backed,
// quiesced (no append within Quiesce), and at or above the unsorted-segments
// threshold — then compacts each such dataset through Registry.Compact.
type Compactor struct {
	reg *Registry
	cfg CompactorConfig
}

// NewCompactor builds a compactor over the registry; Run starts it.
func NewCompactor(reg *Registry, cfg CompactorConfig) *Compactor {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 1
	}
	if cfg.Quiesce == 0 {
		cfg.Quiesce = cfg.Interval
	}
	return &Compactor{reg: reg, cfg: cfg}
}

// Run sweeps every Interval until ctx is canceled.
func (c *Compactor) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// Sweep examines every dataset once and compacts the eligible ones,
// returning the names compacted. Exported so tests (and one-shot callers)
// can drive the policy without the ticker.
func (c *Compactor) Sweep() []string {
	var compacted []string
	for _, d := range c.reg.List() {
		if d.packPath == "" {
			continue
		}
		if last := d.ctr.lastAppendNano.Load(); last != 0 && nowNano()-last < int64(c.cfg.Quiesce) {
			continue // ingest still hot; let it settle
		}
		if d.ctr.unsortedSegs.Load() < int64(c.cfg.Threshold) {
			continue
		}
		name := d.Name()
		nd, res, err := c.reg.Compact(name, c.cfg.Cols)
		if err != nil {
			if c.cfg.Logf != nil {
				c.cfg.Logf("compact %s: %v", name, err)
			}
			continue
		}
		if c.cfg.Logf != nil {
			c.cfg.Logf("compacted %s: %d rows, %d segments re-clustered on %v (%d segments were unsorted), generation %d",
				name, res.Rows, res.Segments, res.Cols, res.UnsortedBefore, nd.ctr.generation.Load())
		}
		compacted = append(compacted, name)
	}
	return compacted
}
