package compact

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zpack"
)

// TmpSuffix is appended to a zpack path to form the in-progress generation's
// temp file. It never matches the `*.zpack` glob directory loading uses, so a
// compaction that dies mid-write leaves nothing a warm restart would serve.
const TmpSuffix = ".compact.tmp"

// DefaultMaxCols is how many cluster columns an automatic pick uses. The
// primary column gets the most significant bits of the sort key; more than
// one secondary dilutes every dimension's zone tightness.
const DefaultMaxCols = 2

// Stage names a point in the rewrite's commit protocol, in order. The Hook
// test seam fires at each; a hook error abandons the rewrite exactly there,
// simulating a crash with whatever state the protocol had on disk.
type Stage int

const (
	// StageTempCreated: the temp file exists with only its header; the
	// re-clustered rows are not yet written.
	StageTempCreated Stage = iota
	// StagePreRename: the temp file is complete and fsynced but the rename
	// has not happened; the old generation is still the visible one.
	StagePreRename
	// StagePostRename: the new generation is visible under the final path but
	// the directory entry may not be durable yet (fsync of the parent
	// directory is still pending).
	StagePostRename
)

func (s Stage) String() string {
	switch s {
	case StageTempCreated:
		return "temp-created"
	case StagePreRename:
		return "pre-rename"
	case StagePostRename:
		return "post-rename"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Options tunes one compaction.
type Options struct {
	// Cols pins the cluster columns in significance order. Empty means pick
	// DefaultMaxCols automatically from Provenance and dictionary statistics.
	Cols []string
	// Provenance is the store's cumulative skip attribution, the live
	// evidence of which columns' metadata actually proves segments empty.
	Provenance map[engine.SkipAttr]int64
	// Hook, when set, is called at each Stage of the commit protocol; a
	// non-nil return abandons the rewrite there (crash-test seam).
	Hook func(stage Stage, tmpPath string) error
}

// Result describes one completed compaction.
type Result struct {
	// Cols are the cluster columns used, in significance order.
	Cols []string `json:"cols"`
	// Rows and Segments describe the rewritten generation.
	Rows     int `json:"rows"`
	Segments int `json:"segments"`
	// UnsortedBefore is how many segments were out of primary-key order
	// before the rewrite (after it the count is zero by construction).
	UnsortedBefore int `json:"unsortedBefore"`
}

// File rewrites the zpack file at path re-clustered on the chosen columns and
// atomically replaces it, in the current format version. Every column is
// gathered whole through Order's permutation (a second copy of the table while
// File runs) and written by zpack's bulk AppendTable. The commit protocol, in
// Stage order:
//
//  1. rows are sorted and written to <path>.compact.tmp (any stale temp from
//     a crashed predecessor is removed first);
//  2. the temp file is fsynced via the writer's commit, so its bytes are
//     durable before it can become visible;
//  3. os.Rename moves it over path — atomic on POSIX, so every open and every
//     glob sees either the old complete generation or the new one;
//  4. the parent directory is fsynced, making the swap itself durable.
//
// Committed bytes of the old generation are never touched: readers holding
// its descriptor keep a consistent snapshot until they close it.
func File(path string, opts Options) (Result, error) {
	r, err := zpack.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer r.Close()

	cols := opts.Cols
	if len(cols) == 0 {
		cols = PickCols(r, opts.Provenance, DefaultMaxCols)
		if len(cols) == 0 {
			return Result{}, fmt.Errorf("compact: %s: no usable cluster column (need a column with more than one distinct value)", path)
		}
	}
	t := r.Table()
	for _, col := range cols {
		if t.Column(col) == nil {
			return Result{}, fmt.Errorf("compact: %s: no column %q", path, col)
		}
	}
	res := Result{Cols: cols, Rows: r.Rows()}
	if res.UnsortedBefore, err = Unsorted(r, cols[0]); err != nil {
		return Result{}, err
	}
	if err := r.LoadAll(); err != nil {
		return Result{}, err
	}
	ord, err := Order(t, cols)
	if err != nil {
		return Result{}, err
	}

	tmp := path + TmpSuffix
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return Result{}, err
	}
	w, err := zpack.Create(tmp, r.Name(), t.Fields())
	if err != nil {
		return Result{}, err
	}
	abort := func(stage Stage) error {
		if opts.Hook == nil {
			return nil
		}
		return opts.Hook(stage, tmp)
	}
	if err := abort(StageTempCreated); err != nil {
		w.Discard()
		return Result{}, fmt.Errorf("compact: %s: aborted at %s: %w", path, StageTempCreated, err)
	}
	if err := w.AppendTable(t.Gather(ord)); err != nil {
		w.Discard()
		os.Remove(tmp)
		return Result{}, err
	}
	// Close commits: partial tail + footer + trailer, then fsync.
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return Result{}, err
	}
	res.Segments = (res.Rows + engine.SegmentSize - 1) / engine.SegmentSize
	if err := abort(StagePreRename); err != nil {
		return Result{}, fmt.Errorf("compact: %s: aborted at %s: %w", path, StagePreRename, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return Result{}, err
	}
	if err := abort(StagePostRename); err != nil {
		return Result{}, fmt.Errorf("compact: %s: aborted at %s: %w", path, StagePostRename, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Order returns the row permutation that re-clusters t: rows sort by a key
// whose most significant word is the primary column's dense rank and whose
// remaining words z-order-interleave the secondary columns' ranks, ties
// broken by original row index. Equality predicates on the primary column get
// perfectly contiguous runs; the secondaries share the residual bit budget
// evenly, the z-order compromise. The order is a deterministic total order:
// the same table and columns always produce the same permutation.
//
// One coded column needs no key: its rows sort by counting codes in
// dictionary-rank order (codeOrder). Otherwise dense ranks are narrow, so
// the key's significant bits — the primary's rank, the interleave as deep as
// the widest secondary, the row index — usually fit one word, which sorts in
// a few linear radix passes; when they do not, the rows sort by comparing
// their multi-word keys. All three are the same total order.
func Order(t *dataset.Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("compact: no cluster columns")
	}
	cs := make([]*dataset.Column, len(cols))
	for j, name := range cols {
		if cs[j] = t.Column(name); cs[j] == nil {
			return nil, fmt.Errorf("compact: no column %q in table %q", name, t.Name)
		}
	}
	if len(cs) == 1 && cs[0].Coded() {
		return codeOrder(cs[0], t.NumRows()), nil
	}
	return keyOrder(cs, t.NumRows()), nil
}

// codeOrder is Order for one coded column: a counting sort of the first n
// rows by their code's dictionary rank, each code's rows in row order — the
// total order keyOrder's (rank, row) keys give, without building them.
func codeOrder(c *dataset.Column, n int) []int {
	var ranks []uint64
	if c.Field.Kind == dataset.KindString {
		ranks = dataset.DictRanks(c.Dict())
	} else {
		ranks = dataset.DictRanks(c.IntDict())
	}
	next := make([]int, len(ranks)) // per code: its rows' count, then its next position
	for i := 0; i < n; i++ {
		next[c.Code(i)]++
	}
	byRank := make([]int32, len(ranks))
	for code, r := range ranks {
		byRank[r] = int32(code)
	}
	at := 0
	for _, code := range byRank {
		next[code], at = at, at+next[code]
	}
	idx := make([]int, n)
	for i := range idx {
		code := c.Code(i)
		idx[next[code]] = i
		next[code]++
	}
	return idx
}

// keyOrder is Order for any columns, the first n rows of each.
func keyOrder(cs []*dataset.Column, n int) []int {
	ranks := make([][]uint64, len(cs))
	depth := 0 // bits of the widest secondary rank
	var width0 int
	for j, c := range cs {
		var width int
		ranks[j], width = normalizedRanks(c, n)
		if j == 0 {
			width0 = width
		} else {
			depth = max(depth, width)
		}
	}
	idx := make([]int, n)
	if n == 0 {
		return idx
	}
	nsec := len(cs) - 1
	dims := make([]uint64, nsec)
	rowBits := bits.Len64(uint64(n - 1))
	if sig := width0 + nsec*depth; sig+rowBits <= 64 {
		// One word per row: the significant bits above the row index. Built
		// in row order, so a stable sort on the bits above it is the sort.
		keys := make([]uint64, n)
		inter := make([]uint64, max(nsec, 1)) // the interleave's bits all land in its first word
		for i := range keys {
			for j := range dims {
				dims[j] = ranks[j+1][i]
			}
			interleaveInto(dims, inter, depth)
			keys[i] = (ranks[0][i]|inter[0]>>uint(width0))>>uint(64-sig)<<uint(rowBits) | uint64(i)
		}
		keys = radixSort(keys, make([]uint64, n), rowBits, sig)
		for i, k := range keys {
			idx[i] = int(k & (1<<uint(rowBits) - 1))
		}
		return idx
	}
	// Key layout: word 0 = primary rank; words 1..d-1 = balanced interleave
	// of the secondary ranks.
	kw := len(cs) // key words per row
	keys := make([]uint64, n*kw)
	for i := range idx {
		idx[i] = i
		keys[i*kw] = ranks[0][i]
		for j := range dims {
			dims[j] = ranks[j+1][i]
		}
		interleaveInto(dims, keys[i*kw+1:(i+1)*kw], depth)
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := slices.Compare(keys[a*kw:(a+1)*kw], keys[b*kw:(b+1)*kw]); c != 0 {
			return c
		}
		return a - b
	})
	return idx
}

// radixSort sorts keys by their bits [low, low+width) with stable
// least-significant-digit passes, leaving keys that agree there in the order
// they came, and returns whichever of keys and tmp holds the result.
func radixSort(keys, tmp []uint64, low, width int) []uint64 {
	const digit = 11
	var count [1 << digit]int
	for shift := low; shift < low+width; shift += digit {
		mask := uint64(1)<<uint(min(digit, low+width-shift)) - 1
		clear(count[:])
		for _, k := range keys {
			count[k>>uint(shift)&mask]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for _, k := range keys {
			d := k >> uint(shift) & mask
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// normalizedRanks maps one column's rows onto dense, left-aligned u64 ranks
// and returns them with their width in bits: the kind-specific monotone rank
// (IntRank, FloatRank, DictRanks) is compressed to 0..distinct-1 and shifted
// so its top bit lands at bit 63. Dense left alignment is what makes a
// balanced interleave meaningful — every dimension contributes comparable bit
// significance regardless of its value range.
func normalizedRanks(c *dataset.Column, n int) ([]uint64, int) {
	raw := make([]uint64, n)
	var dense func(v uint64) uint64 // raw rank (Coded column: code) -> 0..distinct-1
	var distinct int
	if c.Coded() {
		// The dictionary's ranks are the column's: number the codes that occur
		// in dictionary-rank order, no row sort.
		var ranks []uint64
		if c.Field.Kind == dataset.KindString {
			ranks = dataset.DictRanks(c.Dict())
		} else {
			ranks = dataset.DictRanks(c.IntDict())
		}
		byRank := make([]int32, len(ranks))
		for code, r := range ranks {
			byRank[r] = int32(code)
		}
		occurs := make([]bool, len(byRank))
		for i := range raw {
			code := c.Code(i)
			raw[i] = uint64(code)
			occurs[code] = true
		}
		rankOf := make([]uint64, len(byRank))
		for _, code := range byRank {
			if occurs[code] {
				rankOf[code] = uint64(distinct)
				distinct++
			}
		}
		dense = func(code uint64) uint64 { return rankOf[code] }
	} else {
		if c.Field.Kind == dataset.KindInt {
			for i, v := range c.Ints()[:n] {
				raw[i] = IntRank(v)
			}
		} else {
			for i, v := range c.Floats()[:n] {
				raw[i] = FloatRank(v)
			}
		}
		u := slices.Clone(raw)
		slices.Sort(u)
		u = slices.Compact(u)
		distinct = len(u)
		dense = func(v uint64) uint64 {
			k, _ := slices.BinarySearch(u, v)
			return uint64(k)
		}
	}
	width := 1
	if distinct > 1 {
		width = bits.Len64(uint64(distinct - 1))
	}
	shift := uint(64 - width)
	for i, v := range raw {
		raw[i] = dense(v) << shift
	}
	return raw, width
}

// PickCols chooses cluster columns from the file's metadata: columns ranked
// by cumulative skip count descending (the live evidence that their metadata
// proves segments empty), then — when no provenance names any column — by
// dictionary cardinality descending, since a higher-cardinality clustered
// column concentrates each value into a smaller segment fraction. Columns
// with a known cardinality below two (constants, empty files) can never
// produce a skip and are excluded; numeric columns without a dictionary have
// unknown cardinality and are eligible only via provenance.
func PickCols(r *zpack.Reader, prov map[engine.SkipAttr]int64, max int) []string {
	if max <= 0 {
		max = DefaultMaxCols
	}
	totals := engine.ColumnSkipTotals(prov)
	type cand struct {
		name  string
		card  int // -1 = unknown (numeric without a dictionary)
		skips int64
		ord   int
	}
	var cands []cand
	for ord, c := range r.Table().Columns() {
		name := c.Field.Name
		card := -1
		switch c.Field.Kind {
		case dataset.KindString:
			card = len(c.Dict())
		case dataset.KindInt:
			if c.Coded() {
				card = c.Cardinality()
			}
		}
		if card >= 0 && card < 2 {
			continue
		}
		if card < 0 && totals[name] == 0 {
			continue
		}
		cands = append(cands, cand{name: name, card: card, skips: totals[name], ord: ord})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].skips != cands[j].skips {
			return cands[i].skips > cands[j].skips
		}
		if (cands[i].card >= 0) != (cands[j].card >= 0) {
			return cands[i].card >= 0
		}
		if cands[i].card != cands[j].card {
			return cands[i].card > cands[j].card
		}
		return cands[i].ord < cands[j].ord
	})
	// When live evidence exists, cluster only on evidenced columns: a column
	// no query's metadata ever proved anything with just dilutes the key.
	if len(cands) > 0 && cands[0].skips > 0 {
		n := 0
		for _, c := range cands {
			if c.skips > 0 {
				n++
			}
		}
		cands = cands[:n]
	}
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// Unsorted counts the segments of the file that are out of order on col: a
// segment whose minimum rank falls below the running maximum of the segments
// before it. A file compacted with col as the primary cluster column reports
// zero; every append of out-of-range rows grows the count, which is what the
// background compactor thresholds on.
func Unsorted(r *zpack.Reader, col string) (int, error) {
	z := r.Zone(col)
	c := r.Table().Column(col)
	if z == nil || c == nil {
		return 0, fmt.Errorf("compact: no column %q in %s", col, r.Path())
	}
	nseg := r.NumSegments()
	var lohi func(s int) (uint64, uint64)
	if c.Field.Kind == dataset.KindString {
		dr := dataset.DictRanks(c.Dict())
		lohi = func(s int) (uint64, uint64) {
			lo, hi := uint64(math.MaxUint64), uint64(0)
			base := s * z.Words
			for w := 0; w < z.Words; w++ {
				p := z.Present[base+w]
				for p != 0 {
					code := w*64 + bits.TrailingZeros64(p)
					p &= p - 1
					if code >= len(dr) {
						continue
					}
					if dr[code] < lo {
						lo = dr[code]
					}
					if dr[code] > hi {
						hi = dr[code]
					}
				}
			}
			return lo, hi
		}
	} else {
		lohi = func(s int) (uint64, uint64) {
			if z.Min[s] > z.Max[s] { // no finite values: all NaN
				return math.MaxUint64, math.MaxUint64
			}
			lo, hi := FloatRank(z.Min[s]), FloatRank(z.Max[s])
			if z.NaN[s] {
				hi = math.MaxUint64 // NaN rows rank above every finite value
			}
			return lo, hi
		}
	}
	unsorted := 0
	var prevHi uint64
	for s := 0; s < nseg; s++ {
		lo, hi := lohi(s)
		if s > 0 && lo < prevHi {
			unsorted++
		}
		if s == 0 || hi > prevHi {
			prevHi = hi
		}
	}
	return unsorted, nil
}

// SweepTmp removes stale in-progress generations (<anything>.compact.tmp)
// from dir — the leavings of a compactor that died mid-write — and returns
// the paths removed. Safe to call on a live directory: a temp file is only
// ever read by the compaction that is writing it.
func SweepTmp(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+TmpSuffix))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return removed, err
		}
		removed = append(removed, m)
	}
	return removed, nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
