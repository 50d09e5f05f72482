package zpack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Reader serves one committed snapshot of a zpack file as an
// engine.SegmentSource. Open reads only the header, trailer, and footer —
// cheap, metadata-sized I/O — and presizes the table's column storage; a
// (segment, column) block is read, checksum-verified, and decoded in place
// the first time a scan that reads the column visits the segment. A segment
// the zone maps prove empty is never read from disk, and neither is a column
// no query reads.
//
// A Reader produced by Reopen over the same inode adopts its predecessor's
// materialised state instead of starting cold: see Reopen.
//
// All methods are safe for concurrent use.
type Reader struct {
	f     *os.File
	owns  atomic.Bool // whether Close closes f: true for the lineage's newest Reader only
	path  string
	foot  *footer
	size  int64 // committed file size this snapshot was read at
	table *dataset.Table

	zones map[string]*engine.ZoneData

	// loads[s] guards segment s. Snapshots of one append lineage that share
	// backing arrays point at the SAME state for every segment whose footer
	// record they agree on, so whichever snapshot's scan gets to a block
	// first is its one writer and the others wait on (or observe) the result.
	loads []*loadState
	// adopted is set once a successor has taken over this Reader's storage:
	// the rows past this snapshot's length then belong to that successor, so
	// a second Reopen from here starts cold rather than write them twice.
	adopted atomic.Bool
	// gate is the lineage's: shared with every successor that adopts this
	// Reader's storage (see Release).
	gate *scanGate

	// read[s] is set once this Reader has read a block of segment s, and
	// segLoads counts those segments.
	read     []atomic.Bool
	segLoads atomic.Int64
	// failed holds the blocks whose load failed on this snapshot, by
	// (segment, column): the failure is this snapshot's for good, while a
	// successor sharing the segment's load state reads the block afresh.
	failMu sync.Mutex
	failed map[[2]int]error

	loadAll    sync.Once
	loadAllErr error
}

// loadState is the load-once cell of one segment over one set of backing
// arrays. Rows [segment start, from) of every column were materialised before
// the cell was created (by an ancestor snapshot, see adopt); loading a column
// fills its rows [from, segment end). loaded holds a bit per column whose
// block is in place; bits are set under mu and read without it.
type loadState struct {
	mu     sync.Mutex
	loaded []atomic.Uint64
	from   int
}

// newLoadStates returns n load states over ncols columns, from unset.
func newLoadStates(n, ncols int) []loadState {
	words := (ncols + 63) / 64
	bits := make([]atomic.Uint64, n*words)
	states := make([]loadState, n)
	for s := range states {
		states[s].loaded = bits[s*words : (s+1)*words : (s+1)*words]
	}
	return states
}

// newLoadState returns one load state over ncols columns whose rows from on
// are still to be read.
func newLoadState(ncols, from int) *loadState {
	l := &newLoadStates(1, ncols)[0]
	l.from = from
	return l
}

// has reports whether column j's block is in place.
func (l *loadState) has(j int) bool { return l.loaded[j>>6].Load()&(1<<(uint(j)&63)) != 0 }

// hasAll reports whether the block of every column of cols is in place.
func (l *loadState) hasAll(cols engine.ColumnSet) bool {
	for w, want := range cols[:min(len(cols), len(l.loaded))] {
		if want&^l.loaded[w].Load() != 0 {
			return false
		}
	}
	return true
}

// mark records column j's block as in place; the caller holds mu.
func (l *loadState) mark(j int) {
	w := &l.loaded[j>>6]
	w.Store(w.Load() | 1<<(uint(j)&63))
}

// unmark records column j's block as unloaded again; the caller holds mu.
func (l *loadState) unmark(j int) {
	w := &l.loaded[j>>6]
	w.Store(w.Load() &^ (1 << (uint(j) & 63)))
}

// Open opens a zpack file, reading its footer and preparing the lazy table.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newReader(f, path, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.owns.Store(true)
	return r, nil
}

// Reopen re-reads the footer and returns a Reader over the newly committed
// snapshot. In the append case the path still names the inode this Reader
// holds open: committed byte ranges are append-only, so this Reader keeps
// working unchanged, the two share the descriptor (its ownership moves to the
// successor, see Close — no file-descriptor-per-snapshot leak), and the
// successor ADOPTS this Reader's materialised state, so it costs the footer
// plus the appended rows, not the table:
//
//   - its column arrays are longer re-slices of the same backing arrays (exact
//     size at Open; the first Reopen to outgrow the capacity reallocates with
//     a quarter of headroom and copies the loaded segments over);
//   - every segment whose footer record (rows, block offsets, lengths, CRCs)
//     is unchanged shares this Reader's load state, loaded or not — one
//     writer and one happens-before edge, whichever snapshot's scan arrives
//     first;
//   - only the rewritten tail segment and brand-new segments are read from
//     disk, and those loads write only rows past this Reader's row count,
//     which no older snapshot can see (this Reader's partial tail is loaded
//     before the hand-over, so the successor never rewrites rows an older
//     snapshot may be reading).
//
// The successor answers exactly as a cold Open of the same file does, and it
// IS one whenever adoption would not be safe. After a compaction's
// atomic-rename cutover the path names a NEW inode (re-reading the shared
// descriptor there would resurrect the replaced generation's footer), so
// Reopen opens a fresh Reader with a descriptor of its own. Over the same
// inode the successor starts from empty storage if the schema changed, a
// block this Reader indexes moved, a dictionary no longer starts with the
// entries this Reader knows (dictionaries are in code order and only grow at
// the end, so only a rewrite does that), an int column outgrew
// MaxIntDictCardinality and went raw, a dictionary outgrew the width its
// column's codes are packed at (the arrays are the wrong type to extend), or
// this Reader already handed its storage to an earlier successor.
func (r *Reader) Reopen() (*Reader, error) {
	if st, err := os.Stat(r.path); err == nil {
		if fst, ferr := r.f.Stat(); ferr == nil && !os.SameFile(st, fst) {
			return Open(r.path)
		}
	}
	nr, err := newReader(r.f, r.path, r)
	if err != nil {
		return nil, err
	}
	nr.owns.Store(r.owns.Swap(false))
	return nr, nil
}

func newReader(f *os.File, path string, pred *Reader) (*Reader, error) {
	foot, size, err := readFooter(f)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		f:     f,
		path:  path,
		foot:  foot,
		size:  size,
		zones: foot.zones,
		loads: make([]*loadState, len(foot.segs)),
		read:  make([]atomic.Bool, len(foot.segs)),
	}
	cold := pred == nil || !r.adopt(pred)
	if cold {
		r.gate = newScanGate(len(foot.fields))
		r.table = dataset.NewTable(foot.name, foot.fields)
		states := newLoadStates(len(foot.segs), len(foot.fields))
		for s := range states {
			states[s].from = s * engine.SegmentSize
			r.loads[s] = &states[s]
		}
	}
	// The dictionaries: they decide the widths a cold table is presized at,
	// and leave the widths of an adopted one alone (continuedBy saw to that).
	for j, c := range r.table.Columns() {
		name := c.Field.Name
		switch c.Field.Kind {
		case dataset.KindString:
			c.SetDict(foot.dicts[name])
		case dataset.KindInt:
			// A dictionary-coded column answers distinct enumeration (axis '*'
			// expansion) from the dictionary; no data load needed.
			if vals, ok := foot.intVals[name]; ok {
				c.SetIntDict(vals)
			} else {
				c.SetRawInts()
				c.SetEnsureLoaded(r.ensureColumn(j))
			}
		default:
			c.SetEnsureLoaded(r.ensureColumn(j))
		}
	}
	if cold {
		r.table.Presize(int(foot.nrows))
	}
	return r, nil
}

// continuedBy reports whether foot describes an append-only continuation of
// the snapshot pred serves: same schema, every dictionary code pred handed
// out still meaning the same value and still fitting the width pred's codes
// are packed at, every segment pred indexes still where it was (only a partial
// tail may have been rewritten, no shorter), and everything else written past
// pred's end of file.
func (pred *Reader) continuedBy(foot *footer) bool {
	old := pred.foot
	if foot.name != old.name || !slices.Equal(foot.fields, old.fields) ||
		foot.nrows < old.nrows || len(foot.intVals) != len(old.intVals) {
		return false
	}
	for name, dict := range old.dicts {
		now := foot.dicts[name]
		if len(now) < len(dict) || !slices.Equal(now[:len(dict)], dict) || dataset.CodeWidth(len(now)) != dataset.CodeWidth(len(dict)) {
			return false
		}
	}
	for name, vals := range old.intVals {
		now, ok := foot.intVals[name]
		if !ok || len(now) < len(vals) || !slices.Equal(now[:len(vals)], vals) || dataset.CodeWidth(len(now)) != dataset.CodeWidth(len(vals)) {
			return false
		}
	}
	for s, seg := range foot.segs {
		if s < len(old.segs) && sameSegment(old.segs[s], seg) {
			continue
		}
		if s < len(old.segs) && (old.segs[s].rows == engine.SegmentSize || seg.rows < old.segs[s].rows) {
			return false
		}
		for _, b := range seg.blocks {
			if b.off < pred.size {
				return false
			}
		}
	}
	return true
}

// adopt makes r the successor of pred over pred's materialised state (see
// Reopen), reporting false — with r untouched — when r must start cold. It
// holds pred's gate throughout: no block it shares or copies goes back to
// the file under it.
func (r *Reader) adopt(pred *Reader) bool {
	pred.gate.hold()
	defer pred.gate.mu.RUnlock()
	if !pred.continuedBy(r.foot) {
		return false
	}
	// Hand-over point of the tail: a partial last segment of pred is
	// rewritten, longer, by every append. Load pred's copy of every column
	// now, so that what r still has to fill in starts at pred's row count.
	ncols := len(r.foot.fields)
	if tail := len(pred.loads) - 1; tail >= 0 && !sameSegment(pred.foot.segs[tail], r.foot.segs[tail]) {
		if err := pred.Load(tail, engine.AllColumns(ncols)); err != nil {
			return false
		}
	}
	if !pred.adopted.CompareAndSwap(false, true) {
		return false
	}
	r.gate = pred.gate
	rows := int(r.foot.nrows)
	alias := rows <= pred.table.CapRows()
	r.table = dataset.NewExtended(pred.table, rows, alias)
	r.table.Name = r.foot.name
	for s := range r.loads {
		lo := s * engine.SegmentSize
		if s >= len(pred.loads) {
			r.loads[s] = newLoadState(ncols, lo)
			continue
		}
		pl, ps := pred.loads[s], pred.foot.segs[s]
		// Same blocks over the same arrays: one state, whatever it holds.
		l := pl
		if !alias {
			// New arrays: copy the blocks pred has in place. A block not yet
			// in place may be being written into the old arrays by a scan of
			// the old snapshot right now: nothing to copy, nothing to share,
			// so r reads its whole segment again.
			l = newLoadState(ncols, lo)
			for j, c := range r.table.Columns() {
				if pl.has(j) {
					c.CopyRows(pred.table.Columns()[j], lo, lo+ps.rows)
					l.mark(j)
				}
			}
		}
		if !sameSegment(ps, r.foot.segs[s]) {
			// The rewritten tail, loaded above: pred's rows of every column
			// are in place, the rest is new.
			l = newLoadState(ncols, lo+ps.rows)
		}
		r.loads[s] = l
	}
	return true
}

// sameSegment reports whether two footer records index the same bytes.
func sameSegment(a, b segMeta) bool {
	return a.rows == b.rows && slices.Equal(a.blocks, b.blocks)
}

// readFooter validates the header and trailer of an open file and decodes
// the committed footer. It returns the file size alongside.
func readFooter(f *os.File) (*footer, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	if size < headerSize+trailerSize {
		return nil, 0, fmt.Errorf("zpack: %s: file too short (%d bytes) to be a zpack file", f.Name(), size)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, err
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return nil, 0, fmt.Errorf("zpack: %s: bad magic %q (not a zpack file)", f.Name(), hdr[:4])
	}
	version := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if version < 1 || version > Version {
		return nil, 0, fmt.Errorf("zpack: %s: unsupported format version %d (this build reads versions 1 to %d)", f.Name(), version, Version)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, 0, err
	}
	if [4]byte(tr[20:24]) != trailerMagic {
		return nil, 0, fmt.Errorf("zpack: %s: bad trailer magic (truncated or torn final append)", f.Name())
	}
	footOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footLen := int64(binary.LittleEndian.Uint64(tr[8:16]))
	footCRC := binary.LittleEndian.Uint32(tr[16:20])
	if footOff < headerSize || footOff > size-trailerSize || footLen < 0 || footLen > size-trailerSize-footOff {
		return nil, 0, fmt.Errorf("zpack: %s: trailer points outside the file (footer at %d+%d of %d)", f.Name(), footOff, footLen, size)
	}
	payload := make([]byte, footLen)
	if _, err := f.ReadAt(payload, footOff); err != nil {
		return nil, 0, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != footCRC {
		return nil, 0, fmt.Errorf("zpack: %s: footer checksum mismatch (got %08x, want %08x)", f.Name(), got, footCRC)
	}
	foot, err := decodeFooter(payload, version)
	if err != nil {
		return nil, 0, err
	}
	// Every row of every column takes at least a byte of the file, so a row
	// count it cannot hold is corruption, caught here before it sizes the
	// table: memory holds at most eight bytes a cell.
	if width := int64(len(foot.fields)); width > 0 && foot.nrows > (size-headerSize-trailerSize)/width {
		return nil, 0, fmt.Errorf("zpack: %s: footer claims %d rows, more than the file holds", f.Name(), foot.nrows)
	}
	for i, s := range foot.segs {
		for j, b := range s.blocks {
			if fd := foot.fields[j]; !foot.fits(fd, b.enc) || b.len != int64(s.rows*encWidth(b.enc)) {
				return nil, 0, fmt.Errorf("zpack: %s: corrupt footer: segment %d column %q: %d-byte block in encoding %#x", f.Name(), i, fd.Name, b.len, b.enc)
			}
			if b.off < headerSize || b.off > size-trailerSize || b.len < 0 || b.len > size-trailerSize-b.off {
				return nil, 0, fmt.Errorf("zpack: %s: segment %d column %d block outside the file", f.Name(), i, j)
			}
		}
	}
	return foot, size, nil
}

// Table returns the lazily-backed base table: full schema, dictionaries, and
// row count up front, column data materializing as segments load. It is only
// valid under the column back-end (or after LoadAll); other back-ends read
// raw slices eagerly.
func (r *Reader) Table() *dataset.Table { return r.table }

// Name returns the dataset name recorded in the footer.
func (r *Reader) Name() string { return r.foot.name }

// Path returns the file path the reader was opened from.
func (r *Reader) Path() string { return r.path }

// Version returns the format version the file was written in.
func (r *Reader) Version() int { return r.foot.version }

// Encoding names the encoding of segment seg's block of column col.
func (r *Reader) Encoding(seg, col int) string { return encNames[r.foot.segs[seg].blocks[col].enc] }

// Rows returns the committed row count.
func (r *Reader) Rows() int { return int(r.foot.nrows) }

// NumSegments returns the committed segment count.
func (r *Reader) NumSegments() int { return len(r.foot.segs) }

// SegmentRows returns the row count of segment s.
func (r *Reader) SegmentRows(s int) int { return r.foot.segs[s].rows }

// Zone returns the named column's zone maps.
func (r *Reader) Zone(col string) *engine.ZoneData { return r.zones[col] }

// SegmentLoads returns how many segments this Reader has read at least one
// block of from disk — the observable that proves zone-map-skipped segments
// were never read, and that segments adopted from a predecessor were not read
// again. A segment counts once: reading its blocks again after a Release
// does not count.
func (r *Reader) SegmentLoads() int64 { return r.segLoads.Load() }

// ResidentBytes returns the bytes this snapshot's loaded blocks take in
// memory: for every (segment, column) block in place now, the segment's rows
// at the column's width in the table. Presized storage no block has been read
// into is not resident: it is an anonymous mapping nothing has written
// (dataset.Table.Presize), or its block was released (Release).
func (r *Reader) ResidentBytes() int64 {
	cols := r.table.Columns()
	width := make([]int64, len(cols))
	for j, c := range cols {
		width[j] = 8
		if c.Coded() {
			width[j] = int64(c.Codes().Width())
		}
	}
	var b int64
	for s, l := range r.loads {
		for j := range cols {
			if l.has(j) {
				b += int64(r.foot.segs[s].rows) * width[j]
			}
		}
	}
	return b
}

// Load materializes the blocks of columns cols in segment seg into the
// table's column storage: each block is read, checksum-verified, and decoded
// in place. Load is idempotent and safe for concurrent use; the work happens
// once per block in place, however many snapshots of the lineage share it —
// and once more after each Release that handed the block back. A block that
// fails to load fails every later Load of it on this Reader; the blocks of
// other columns still load. What Load brings in stays in place while the
// caller holds the lineage's gate (BeginScan).
func (r *Reader) Load(seg int, cols engine.ColumnSet) error {
	if seg < 0 || seg >= len(r.loads) {
		return fmt.Errorf("zpack: segment %d out of range (file has %d)", seg, len(r.loads))
	}
	l := r.loads[seg]
	if l.hasAll(cols) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := seg * engine.SegmentSize
	var buf []byte
	for j, c := range r.table.Columns() {
		if !cols.Has(j) || l.has(j) {
			continue
		}
		if err := r.failure(seg, j); err != nil {
			return err
		}
		if err := readColumn(r.f, r.foot, seg, j, c, lo, l.from-lo, &buf); err != nil {
			return r.fail(seg, j, err)
		}
		l.mark(j)
		if !r.read[seg].Swap(true) {
			r.segLoads.Add(1)
		}
	}
	return nil
}

// failure returns the error a load of block (seg, j) met on this Reader, or
// nil.
func (r *Reader) failure(seg, j int) error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failed[[2]int{seg, j}]
}

// fail records err as what loading block (seg, j) meets on this Reader, and
// returns it.
func (r *Reader) fail(seg, j int, err error) error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.failed == nil {
		r.failed = make(map[[2]int]error)
	}
	r.failed[[2]int{seg, j}] = err
	return err
}

// ensureColumn returns the DistinctSorted hook of numeric column j when it
// has no footer dictionary: materialize the column in every segment before
// the raw scan. A load failure must not degrade into silently incomplete
// enumeration (zeroed segments would just be missing from the distinct set),
// so it panics with the load error; the ZQL axis-expansion path recovers it
// into a query error. The raw scan reads the column after the hook returns,
// outside any hold of the gate, so the column is pinned: never released.
func (r *Reader) ensureColumn(j int) func() {
	cols := engine.NewColumnSet(len(r.foot.fields), j)
	return func() {
		r.gate.hold()
		defer r.gate.mu.RUnlock()
		r.gate.pinned[j].Store(true)
		for s := range r.loads {
			if err := r.Load(s, cols); err != nil {
				panic(err)
			}
		}
	}
}

// LoadAll materializes every column of every segment (for use with
// non-columnar back-ends or full exports), returning the first load error.
// Its callers read the table outside any scan, so every column is pinned:
// nothing of the lineage is released after it.
func (r *Reader) LoadAll() error {
	r.loadAll.Do(func() {
		r.gate.hold()
		defer r.gate.mu.RUnlock()
		for j := range r.gate.pinned {
			r.gate.pinned[j].Store(true)
		}
		all := engine.AllColumns(len(r.foot.fields))
		for s := range r.loads {
			if err := r.Load(s, all); err != nil {
				r.loadAllErr = err
				return
			}
		}
	})
	return r.loadAllErr
}

// Verify re-reads every committed block and checks its length and checksum
// against the footer index, without touching the table. It returns the
// first corruption found.
func (r *Reader) Verify() error {
	var buf []byte
	for s, seg := range r.foot.segs {
		for j, ref := range seg.blocks {
			buf = slices.Grow(buf[:0], int(ref.len))[:ref.len]
			if err := readBlock(r.f, r.foot, s, j, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close closes the underlying file if this Reader owns it: Reopen over the
// same inode hands the descriptor on, so Close is a no-op on a superseded
// Reader (scans still running on it read through the shared descriptor) and
// closing the lineage's newest Reader closes it for all of them.
func (r *Reader) Close() error {
	if !r.owns.Swap(false) {
		return nil
	}
	return r.f.Close()
}

// readBlock reads block j of segment seg into b, sized to the block, checks
// its checksum and puts its words in this machine's byte order.
func readBlock(f io.ReaderAt, foot *footer, seg, j int, b []byte) error {
	ref, name := foot.segs[seg].blocks[j], foot.fields[j].Name
	if _, err := f.ReadAt(b, ref.off); err != nil {
		return fmt.Errorf("zpack: segment %d column %q: %w", seg, name, err)
	}
	if got := crc32.Checksum(b, castagnoli); got != ref.crc {
		return fmt.Errorf("zpack: segment %d column %q: block checksum mismatch (got %08x, want %08x)", seg, name, got, ref.crc)
	}
	if bigEndian {
		swapWords(b, encWidth(ref.enc))
	}
	return nil
}

// readSegment fills rows [at+skip, at+rows) of t from segment seg's blocks
// (readColumn, one buffer between them).
func readSegment(f io.ReaderAt, foot *footer, seg int, t *dataset.Table, at, skip int) error {
	var buf []byte
	for j, c := range t.Columns() {
		if err := readColumn(f, foot, seg, j, c, at, skip, &buf); err != nil {
			return err
		}
	}
	return nil
}

// readColumn fills rows [at+skip, at+rows) of c from block j of segment seg,
// one checksummed read: straight into the column's array when the block is at
// the array's width and holds only rows to fill, through *buf otherwise. The
// footer has matched every block's encoding to its column (fits), so a block
// and an array of one width hold the same encoding.
func readColumn(f io.ReaderAt, foot *footer, seg, j int, c *dataset.Column, at, skip int, buf *[]byte) error {
	ref := foot.segs[seg].blocks[j]
	dst := rowBytes(c, at, at+foot.segs[seg].rows)
	b := dst
	if skip > 0 || int64(len(dst)) != ref.len {
		*buf = slices.Grow((*buf)[:0], int(ref.len))[:ref.len]
		b = *buf
	}
	if err := readBlock(f, foot, seg, j, b); err != nil {
		return err
	}
	if err := fillRows(c, at+skip, b[skip*encWidth(ref.enc):], ref.enc, foot); err != nil {
		return fmt.Errorf("zpack: segment %d column %q: %w (corrupt data)", seg, c.Field.Name, err)
	}
	return nil
}

// fillRows puts the rows of block payload b, in encoding enc, into c from row
// at on, checking every code against its dictionary. A block read straight
// into the array is checked in place.
func fillRows(c *dataset.Column, at int, b []byte, enc uint8, foot *footer) error {
	n := len(b) / encWidth(enc)
	if enc == encV1Values && c.Coded() { // values: look up their codes
		codes := make([]int32, n)
		for i, v := range asWords[int64](b) {
			if codes[i] = c.CodeOfInt(v); codes[i] < 0 {
				return fmt.Errorf("value %d missing from footer dictionary", v)
			}
		}
		b, enc = asBytes(codes), encV1Codes
	}
	switch {
	case enc&encRaw != 0:
		if dst := rowBytes(c, at, at+n); n > 0 && &dst[0] != &b[0] { // not read in place
			copy(dst, b)
		}
	case c.Coded():
		if !c.Codes().Fill(at, blockCodes(b, enc), c.Cardinality()) {
			return fmt.Errorf("dictionary code out of range [0,%d)", c.Cardinality())
		}
	default:
		// A raw int column's blocks from before it went raw.
		dict, codes, ints := foot.oldInts[c.Field.Name], blockCodes(b, enc), c.Ints()[at:at+n]
		for i := range ints {
			code := uint32(codes.At(i))
			if int(code) >= len(dict) {
				return fmt.Errorf("dictionary code %d out of range [0,%d)", code, len(dict))
			}
			ints[i] = dict[code]
		}
	}
	return nil
}

// blockCodes views a code block as the codes it holds.
func blockCodes(b []byte, enc uint8) dataset.Codes {
	switch encWidth(enc) {
	case 2:
		return dataset.Codes{U16: asWords[uint16](b)}
	case 4:
		return dataset.Codes{U32: asWords[uint32](b)}
	}
	return dataset.Codes{U8: b}
}

// rowBytes returns the bytes of rows [lo, hi) of c's array.
func rowBytes(c *dataset.Column, lo, hi int) []byte {
	b, width := arrayBytes(c)
	return b[lo*width : hi*width]
}

// arrayBytes returns the bytes of c's whole array, to its capacity, and the
// bytes a row takes in it.
func arrayBytes(c *dataset.Column) ([]byte, int) {
	pc := c.Codes()
	switch {
	case c.Field.Kind == dataset.KindFloat:
		return asBytes(c.Floats()[:cap(c.Floats())]), 8
	case !c.Coded():
		return asBytes(c.Ints()[:cap(c.Ints())]), 8
	case pc.U16 != nil:
		return asBytes(pc.U16[:cap(pc.U16)]), 2
	case pc.U32 != nil:
		return asBytes(pc.U32[:cap(pc.U32)]), 4
	}
	return pc.U8[:cap(pc.U8)], 1
}
