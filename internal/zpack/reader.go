package zpack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Reader serves one committed snapshot of a zpack file as an
// engine.SegmentSource. Open reads only the header, trailer, and footer —
// cheap, metadata-sized I/O — and presizes the table's column storage;
// segment data is read, checksum-verified, and decoded in place the first
// time a scan visits the segment. A segment the zone maps prove empty is
// never read from disk.
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
	// record they agree on, so whichever snapshot's scan gets there first is
	// the one writer and the others wait on (or observe) its result.
	loads []*loadState
	// adopted is set once a successor has taken over this Reader's storage:
	// the rows past this snapshot's length then belong to that successor, so
	// a second Reopen from here starts cold rather than write them twice.
	adopted atomic.Bool

	segLoads    atomic.Int64
	bytesLoaded atomic.Int64
	loadAll     sync.Once
	loadAllErr  error
}

// loadState is the load-once cell of one segment over one set of backing
// arrays. Rows [segment start, from) were materialised before the cell was
// created (by an ancestor snapshot, see adopt); a load fills [from, segment
// end). state moves pending -> loaded|failed under mu and is read without it.
type loadState struct {
	mu    sync.Mutex
	state atomic.Uint32
	err   error
	from  int
}

const (
	segPending uint32 = iota
	segLoaded
	segFailed
)

// do runs load unless an earlier call already has, and returns its outcome.
func (l *loadState) do(load func(from int) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.state.Load() {
	case segLoaded:
		return nil
	case segFailed:
		return l.err
	}
	if err := load(l.from); err != nil {
		l.err = err
		l.state.Store(segFailed)
		return err
	}
	l.state.Store(segLoaded)
	return nil
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
// block this Reader indexes moved, a dictionary renumbered existing codes (a
// string dictionary only grows at the end; an int dictionary is sorted, so a
// new value below its maximum renumbers it, and one past
// MaxIntDictCardinality drops the encoding), a dictionary outgrew the width
// its column's codes are packed at (the arrays are the wrong type to extend),
// or this Reader already handed its storage to an earlier successor.
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
	}
	cold := pred == nil || !r.adopt(pred)
	if cold {
		r.table = dataset.NewTable(foot.name, foot.fields)
		states := make([]loadState, len(foot.segs))
		for s := range states {
			states[s].from = s * engine.SegmentSize
			r.loads[s] = &states[s]
		}
	}
	// The dictionaries: they decide the widths a cold table is presized at,
	// and leave the widths of an adopted one alone (continuedBy saw to that).
	for _, c := range r.table.Columns() {
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
				c.SetEnsureLoaded(r.ensureAll)
			}
		default:
			c.SetEnsureLoaded(r.ensureAll)
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
// Reopen), reporting false — with r untouched — when r must start cold.
func (r *Reader) adopt(pred *Reader) bool {
	if !pred.continuedBy(r.foot) {
		return false
	}
	// Hand-over point of the tail: a partial last segment of pred is
	// rewritten, longer, by every append. Load pred's copy now, so that what
	// r still has to fill in starts at pred's row count.
	if tail := len(pred.loads) - 1; tail >= 0 && !sameSegment(pred.foot.segs[tail], r.foot.segs[tail]) {
		if err := pred.Load(tail); err != nil {
			return false
		}
	}
	if !pred.adopted.CompareAndSwap(false, true) {
		return false
	}
	rows := int(r.foot.nrows)
	alias := rows <= pred.table.CapRows()
	r.table = dataset.NewExtended(pred.table, rows, alias)
	r.table.Name = r.foot.name
	for s := range r.loads {
		lo := s * engine.SegmentSize
		if s >= len(pred.loads) {
			r.loads[s] = &loadState{from: lo}
			continue
		}
		pl, ps := pred.loads[s], pred.foot.segs[s]
		state := pl.state.Load()
		same := sameSegment(ps, r.foot.segs[s])
		if !alias && state == segLoaded {
			r.table.CopyRows(pred.table, lo, lo+ps.rows)
		}
		switch {
		case !same:
			// The rewritten tail, loaded above: pred's rows are in place,
			// the rest is new.
			r.loads[s] = &loadState{from: lo + ps.rows}
		case alias && state != segFailed:
			// Same blocks over the same arrays: one state, loaded or not.
			r.loads[s] = pl
		case alias:
			// A failure belongs to the snapshot that met it; r reads again.
			r.loads[s] = &loadState{from: pl.from}
		case state == segLoaded:
			// New arrays, rows copied above.
			r.loads[s] = &loadState{}
			r.loads[s].state.Store(segLoaded)
		default:
			// New arrays, and pred's load has not completed (a scan of the
			// old snapshot may be writing the old arrays right now): nothing
			// to copy, nothing to share.
			r.loads[s] = &loadState{from: lo}
		}
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
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, 0, fmt.Errorf("zpack: %s: unsupported format version %d (this build reads version %d)", f.Name(), v, Version)
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
	foot, err := decodeFooter(payload)
	if err != nil {
		return nil, 0, err
	}
	// The file holds a block of rows × width bytes per (segment, column), no
	// two overlapping: a row count it cannot hold is corruption, caught here
	// before it sizes the table.
	var width int64
	for _, fd := range foot.fields {
		width += int64(blockWidth(fd.Kind))
	}
	if width > 0 && foot.nrows > (size-headerSize-trailerSize)/width {
		return nil, 0, fmt.Errorf("zpack: %s: footer claims %d rows, more than the file holds", f.Name(), foot.nrows)
	}
	for i, s := range foot.segs {
		for j, b := range s.blocks {
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

// Rows returns the committed row count.
func (r *Reader) Rows() int { return int(r.foot.nrows) }

// NumSegments returns the committed segment count.
func (r *Reader) NumSegments() int { return len(r.foot.segs) }

// SegmentRows returns the row count of segment s.
func (r *Reader) SegmentRows(s int) int { return r.foot.segs[s].rows }

// Zone returns the named column's zone maps.
func (r *Reader) Zone(col string) *engine.ZoneData { return r.zones[col] }

// SegmentLoads returns how many segments this Reader has materialized from
// disk — the observable that proves zone-map-skipped segments were never
// read, and that segments adopted from a predecessor were not read again.
func (r *Reader) SegmentLoads() int64 { return r.segLoads.Load() }

// BytesLoaded returns the total block bytes read and decoded so far.
func (r *Reader) BytesLoaded() int64 { return r.bytesLoaded.Load() }

// Load materializes segment seg into the table's column storage: each block
// is read, checksum-verified, and decoded in place. Load is idempotent and
// safe for concurrent use; the work happens once per segment, however many
// snapshots of the lineage share it.
func (r *Reader) Load(seg int) error {
	if seg < 0 || seg >= len(r.loads) {
		return fmt.Errorf("zpack: segment %d out of range (file has %d)", seg, len(r.loads))
	}
	l := r.loads[seg]
	if l.state.Load() == segLoaded {
		return nil
	}
	return l.do(func(from int) error { return r.loadSegment(seg, from) })
}

// loadSegment decodes rows [from, segment end) of segment seg straight into
// the column arrays; the rows before from are already there.
func (r *Reader) loadSegment(seg, from int) error {
	lo := seg * engine.SegmentSize
	hi := lo + r.foot.segs[seg].rows
	skip := from - lo
	n, err := decodeSegmentBlocks(r.f, r.foot, seg, func(j int, b []byte) error {
		c := r.table.Columns()[j]
		if !c.Coded() {
			b = b[skip*8:]
			if c.Field.Kind == dataset.KindInt {
				for i, ints := 0, c.Ints()[from:hi]; i < len(ints); i++ {
					ints[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
				}
			} else {
				for i, floats := 0, c.Floats()[from:hi]; i < len(floats); i++ {
					floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
				}
			}
			return nil
		}
		// The on-disk block is u32 codes or u64 values whatever the width in
		// memory: decode straight into the packed array.
		b = b[skip*blockWidth(c.Field.Kind):]
		switch pc := c.Codes(); {
		case pc.U16 != nil:
			return decodeCodes(b, pc.U16[from:hi], c, seg)
		case pc.U32 != nil:
			return decodeCodes(b, pc.U32[from:hi], c, seg)
		default:
			return decodeCodes(b, pc.U8[from:hi], c, seg)
		}
	})
	if err != nil {
		return err
	}
	r.segLoads.Add(1)
	r.bytesLoaded.Add(n)
	return nil
}

// ensureAll is the DistinctSorted hook for numeric columns without a footer
// dictionary: materialize everything before the raw scan. A load failure
// must not degrade into silently incomplete enumeration (zeroed segments
// would just be missing from the distinct set), so it panics with the load
// error; the ZQL axis-expansion path recovers it into a query error.
func (r *Reader) ensureAll() {
	if err := r.LoadAll(); err != nil {
		panic(err)
	}
}

// LoadAll materializes every segment (for use with non-columnar back-ends or
// full exports), returning the first load error.
func (r *Reader) LoadAll() error {
	r.loadAll.Do(func() {
		for s := 0; s < len(r.loads); s++ {
			if err := r.Load(s); err != nil {
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
	for s := range r.foot.segs {
		if _, err := decodeSegmentBlocks(r.f, r.foot, s, nil); err != nil {
			return err
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

// blockWidth returns the on-disk bytes per row of a column kind.
func blockWidth(k dataset.Kind) int {
	if k == dataset.KindString {
		return 4
	}
	return 8
}

// decodeSegmentBlocks reads every column block of one segment through one
// buffer, checks its length and checksum against the footer index, and hands
// the verified payload to sink (nil sink = verify only). The payload is only
// valid during the call. It returns the byte count read.
func decodeSegmentBlocks(f io.ReaderAt, foot *footer, seg int, sink func(j int, payload []byte) error) (int64, error) {
	s := foot.segs[seg]
	buf := make([]byte, s.rows*8)
	var total int64
	for j, fd := range foot.fields {
		ref := s.blocks[j]
		if want := int64(s.rows * blockWidth(fd.Kind)); ref.len != want {
			return 0, fmt.Errorf("zpack: segment %d column %q: block length %d, want %d", seg, fd.Name, ref.len, want)
		}
		b := buf[:ref.len]
		if _, err := f.ReadAt(b, ref.off); err != nil {
			return 0, fmt.Errorf("zpack: segment %d column %q: %w", seg, fd.Name, err)
		}
		if got := crc32.Checksum(b, castagnoli); got != ref.crc {
			return 0, fmt.Errorf("zpack: segment %d column %q: block checksum mismatch (got %08x, want %08x)", seg, fd.Name, got, ref.crc)
		}
		total += ref.len
		if sink == nil {
			continue
		}
		if err := sink(j, b); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// decodeCodes decodes one block of a dictionary-coded column into len(dst)
// packed codes: a categorical block holds the codes themselves, which must lie
// inside the dictionary; an integer block holds the values, which must be in
// the footer's value dictionary.
func decodeCodes[W dataset.Code](b []byte, dst []W, c *dataset.Column, seg int) error {
	if c.Field.Kind == dataset.KindInt {
		for i := range dst {
			v := int64(binary.LittleEndian.Uint64(b[i*8:]))
			code := c.CodeOfInt(v)
			if code < 0 {
				return fmt.Errorf("zpack: segment %d column %q: value %d missing from footer dictionary (corrupt data)", seg, c.Field.Name, v)
			}
			dst[i] = W(code)
		}
		return nil
	}
	card := uint32(c.Cardinality())
	for i := range dst {
		code := binary.LittleEndian.Uint32(b[i*4:])
		if code >= card {
			return fmt.Errorf("zpack: segment %d column %q: dictionary code %d out of range [0,%d)", seg, c.Field.Name, int32(code), card)
		}
		dst[i] = W(code)
	}
	return nil
}

// decodeSegmentInto appends one segment's decoded rows onto a buffer table
// (the OpenAppend tail-restore path).
func decodeSegmentInto(f io.ReaderAt, foot *footer, seg int, buf *dataset.Table) error {
	rows := foot.segs[seg].rows
	cols := make([][]dataset.Value, len(foot.fields))
	_, err := decodeSegmentBlocks(f, foot, seg, func(j int, b []byte) error {
		vals := make([]dataset.Value, rows)
		switch fd := foot.fields[j]; fd.Kind {
		case dataset.KindString:
			dict := foot.dicts[fd.Name]
			for i := range vals {
				code := binary.LittleEndian.Uint32(b[i*4:])
				if int(code) >= len(dict) {
					return fmt.Errorf("zpack: segment %d column %q: dictionary code %d out of range [0,%d)", seg, fd.Name, int32(code), len(dict))
				}
				vals[i] = dataset.SV(dict[code])
			}
		case dataset.KindInt:
			for i := range vals {
				vals[i] = dataset.IV(int64(binary.LittleEndian.Uint64(b[i*8:])))
			}
		default:
			for i := range vals {
				vals[i] = dataset.FV(math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
			}
		}
		cols[j] = vals
		return nil
	})
	if err != nil {
		return err
	}
	row := make(dataset.Row, len(cols))
	for i := 0; i < rows; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		buf.AppendRow(row...)
	}
	return nil
}
