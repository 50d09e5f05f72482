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
// cheap, metadata-sized I/O — into a table that holds the schema, the
// dictionaries and the row count and no cells. A scan reads the blocks it
// needs of each segment it visits into a scratch segment of its own (Load),
// checksum-verified and code-checked on every read, and drops them when it
// moves on: a Reader keeps no block, and the kernel's page cache is the only
// cache of the file's bytes. A segment the zone maps prove empty is never
// read from disk, and neither is a column no query reads.
//
// All methods are safe for concurrent use.
type Reader struct {
	f     *os.File
	owns  atomic.Bool // whether Close closes f: true for the lineage's newest Reader only
	path  string
	foot  *footer
	table *dataset.Table

	// segLoads counts the Loads that read a block.
	segLoads atomic.Int64

	loadAll    sync.Once
	loadAllErr error
}

// Open opens a zpack file, reading its footer and preparing the table.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newReader(f, path)
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
// working unchanged, and the two share the descriptor (its ownership moves to
// the successor, see Close — no file-descriptor-per-snapshot leak). The
// successor is a cold Open of the file in all but the descriptor: it reads
// the new footer and nothing else. After a compaction's atomic-rename cutover
// the path names a NEW inode (re-reading the shared descriptor there would
// resurrect the replaced generation's footer), so Reopen opens a fresh Reader
// with a descriptor of its own.
func (r *Reader) Reopen() (*Reader, error) {
	if st, err := os.Stat(r.path); err == nil {
		if fst, ferr := r.f.Stat(); ferr == nil && !os.SameFile(st, fst) {
			return Open(r.path)
		}
	}
	nr, err := newReader(r.f, r.path)
	if err != nil {
		return nil, err
	}
	nr.owns.Store(r.owns.Swap(false))
	return nr, nil
}

func newReader(f *os.File, path string) (*Reader, error) {
	foot, _, err := readFooter(f)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, path: path, foot: foot, table: dataset.NewTable(foot.name, foot.fields)}
	// The dictionaries decide the layouts a segment is read at. A
	// dictionary-coded column answers distinct enumeration (axis '*'
	// expansion) from the dictionary; a raw one reads the file (distinct).
	for j, c := range r.table.Columns() {
		name := c.Field.Name
		switch c.Field.Kind {
		case dataset.KindString:
			c.SetDict(foot.dicts[name])
		case dataset.KindInt:
			if vals, ok := foot.intVals[name]; ok {
				c.SetIntDict(vals)
			} else {
				c.SetRawInts()
			}
		}
		if !c.Coded() {
			c.SetDistinct(r.distinct(j))
		}
	}
	r.table.SetRows(int(foot.nrows))
	return r, nil
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

// Table returns the base table: full schema, dictionaries, and row count. It
// holds no cells until LoadAll; scans read segments through Load.
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
func (r *Reader) Zone(col string) *engine.ZoneData { return r.foot.zones[col] }

// SegmentLoads returns how many Loads of this Reader have read a block from
// disk — the observable that proves zone-map-skipped segments were never
// read. A segment counts once per Load that reads it.
func (r *Reader) SegmentLoads() int64 { return r.segLoads.Load() }

// Load reads the blocks of columns cols in segment seg into scratch, at rows
// [0, rows of the segment), and returns it (engine.SegmentSource): one ReadAt
// per block, straight into the scratch's array where the block is at its
// width, the checksum and every dictionary code checked on every read. A nil
// scratch is made, with room for a full segment. A block that fails to read
// fails this Load, naming the segment and the column, and the next Load of it
// reads it again.
func (r *Reader) Load(seg int, cols engine.ColumnSet, scratch *dataset.Table) (*dataset.Table, error) {
	if seg < 0 || seg >= len(r.foot.segs) {
		return scratch, fmt.Errorf("zpack: segment %d out of range (file has %d)", seg, len(r.foot.segs))
	}
	if scratch == nil {
		scratch = r.table.Scratch(engine.SegmentSize)
	}
	scratch.Resize(r.foot.segs[seg].rows)
	var buf []byte
	read := false
	for j, c := range scratch.Columns() {
		if !cols.Has(j) {
			continue
		}
		if err := readColumn(r.f, r.foot, seg, j, c, 0, 0, &buf); err != nil {
			return scratch, err
		}
		read = true
	}
	if read {
		r.segLoads.Add(1)
	}
	return scratch, nil
}

// distinct returns the DistinctSorted of raw numeric column j: the column
// read a segment at a time into a scratch of its own, keeping only its
// distinct values. A read failure must not degrade into silently incomplete
// enumeration (a missing segment would just be missing from the distinct
// set), so it panics with the error; the ZQL axis-expansion path recovers it
// into a query error.
func (r *Reader) distinct(j int) func() []dataset.Value {
	cols := engine.NewColumnSet(len(r.foot.fields), j)
	return func() []dataset.Value {
		var d dataset.Distinct
		var seg *dataset.Table
		for s := range r.foot.segs {
			var err error
			if seg, err = r.Load(s, cols, seg); err != nil {
				panic(err)
			}
			d.Add(seg.Columns()[j])
		}
		return d.Values()
	}
}

// LoadAll reads every column of every segment into the Reader's table, which
// holds the whole snapshot from then on, off the Go heap (for compaction and
// the non-columnar back-ends), returning the first read error.
func (r *Reader) LoadAll() error {
	r.loadAll.Do(func() {
		r.table.Presize(int(r.foot.nrows))
		for s := range r.foot.segs {
			if err := readSegment(r.f, r.foot, s, r.table, s*engine.SegmentSize, 0); err != nil {
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
	if c := r.Detach(); c != nil {
		return c.Close()
	}
	return nil
}

// Detach moves the descriptor r owns out of r: the returned Closer closes
// it, and closing r no longer does. Scans still running on r read through it
// until then, while r itself may be collected. It returns nil when r owns no
// descriptor.
func (r *Reader) Detach() io.Closer {
	if !r.owns.Swap(false) {
		return nil
	}
	return r.f
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
		codes, card := blockCodes(b, enc), c.Cardinality()
		var ok bool
		if dst := rowBytes(c, at, at+n); n > 0 && &dst[0] == &b[0] {
			ok = codes.Below(card) // read in place: checked where it lies
		} else {
			ok = c.Codes().Fill(at, codes, card)
		}
		if !ok {
			return fmt.Errorf("dictionary code out of range [0,%d)", card)
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
