package zpack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Writer builds or extends a zpack file. Rows appended through it buffer
// into an open tail segment; the tail seals at engine.SegmentSize rows (its
// zone maps are computed and its blocks written), and Flush commits the
// current state by appending the partial tail's blocks plus a fresh footer
// and trailer at the end of the file. Committed byte ranges are never
// rewritten, so readers holding an older footer keep a consistent snapshot.
//
// A Writer is not safe for concurrent use; callers serialize appends.
type Writer struct {
	f      *os.File
	path   string
	name   string
	fields []dataset.Field

	writeOff   int64
	rowsSealed int64
	sealed     []sealedSeg
	// tail buffers the open segment. Its columns' dictionaries outlive the
	// segments (Truncate keeps them) and are the file's: the categorical ones,
	// and each integer column's distinct values — until they pass
	// dataset.MaxIntDictCardinality, from when the column is raw for good.
	tail  *dataset.Table
	dirty bool
	buf   []byte // one segment's encoded blocks, reused
}

// sealedSeg is one committed-side segment: its block index plus the zone
// data captured when it sealed. Categorical presence bitsets are stored at
// their seal-time word count and padded to the final dictionary size when
// the footer is rendered (dictionaries only grow).
type sealedSeg struct {
	rows    int
	blocks  []blockRef
	num     map[string]numZone
	present map[string][]uint64
}

type numZone struct {
	min, max float64
	nan      bool
}

// Create starts a new zpack file at path for the given schema, truncating
// any existing file. The dataset name is recorded in the footer.
func Create(path, name string, fields []dataset.Field) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("zpack: dataset name must not be empty")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("zpack: schema must have at least one column")
	}
	seen := make(map[string]bool, len(fields))
	for _, fd := range fields {
		if fd.Name == "" || seen[fd.Name] {
			return nil, fmt.Errorf("zpack: invalid schema: empty or duplicate column %q", fd.Name)
		}
		seen[fd.Name] = true
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], headerMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w := &Writer{
		f:        f,
		path:     path,
		name:     name,
		fields:   append([]dataset.Field(nil), fields...),
		writeOff: headerSize,
		dirty:    true, // a fresh file has no committed footer yet
	}
	w.tail = dataset.NewTable(name, w.fields)
	return w, nil
}

// OpenAppend opens an existing zpack file for appending: the footer is read
// back, sealed segments and dictionaries are restored, and a trailing
// partial segment (if any) is decoded into the open tail buffer so new rows
// keep accreting into it.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	foot, size, err := readFooter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:        f,
		path:     path,
		name:     foot.name,
		fields:   foot.fields,
		writeOff: size,
	}
	// Split the footer's segments into sealed ones and the open tail.
	nseg := len(foot.segs)
	tailSeg := -1
	if nseg > 0 && foot.segs[nseg-1].rows < engine.SegmentSize {
		tailSeg = nseg - 1
	}
	for i, s := range foot.segs {
		if i == tailSeg {
			break
		}
		rec := sealedSeg{
			rows:    s.rows,
			blocks:  s.blocks,
			num:     make(map[string]numZone),
			present: make(map[string][]uint64),
		}
		for _, fd := range w.fields {
			z := foot.zones[fd.Name]
			if fd.Kind == dataset.KindString {
				rec.present[fd.Name] = append([]uint64(nil), z.Present[i*z.Words:(i+1)*z.Words]...)
			} else {
				rec.num[fd.Name] = numZone{min: z.Min[i], max: z.Max[i], nan: z.NaN[i]}
			}
		}
		w.sealed = append(w.sealed, rec)
		w.rowsSealed += int64(s.rows)
	}
	// The tail carries the file's dictionaries so far, so its codes stay
	// consistent with every sealed block.
	w.tail = dataset.NewTable(w.name, w.fields)
	for _, c := range w.tail.Columns() {
		switch vals, ok := foot.intVals[c.Field.Name]; {
		case c.Field.Kind == dataset.KindString:
			c.SetDict(foot.dicts[c.Field.Name])
		case ok:
			c.SetIntDict(vals)
		case c.Field.Kind == dataset.KindInt:
			c.SetRawInts() // exceeded the bound in a prior session
		}
	}
	if tailSeg >= 0 {
		if err := decodeSegmentInto(f, foot, tailSeg, w.tail); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// Name returns the dataset name recorded in the footer.
func (w *Writer) Name() string { return w.name }

// Fields returns the schema.
func (w *Writer) Fields() []dataset.Field { return w.fields }

// Rows returns the total row count, sealed plus buffered tail.
func (w *Writer) Rows() int64 { return w.rowsSealed + int64(w.tail.NumRows()) }

// Segments returns the segment count the next Flush will commit.
func (w *Writer) Segments() int {
	n := len(w.sealed)
	if w.tail.NumRows() > 0 {
		n++
	}
	return n
}

// Append buffers rows into the open tail segment, sealing it each time it
// reaches engine.SegmentSize rows. Values are coerced to the column kinds
// the way dataset.Column.Append coerces them. The rows are NOT durable until
// Flush commits them.
func (w *Writer) Append(rows []dataset.Row) error {
	for _, row := range rows {
		if len(row) != len(w.fields) {
			return fmt.Errorf("zpack: row arity %d does not match schema arity %d", len(row), len(w.fields))
		}
		w.tail.AppendRow(row...)
		w.dirty = true
		if w.tail.NumRows() == engine.SegmentSize {
			if err := w.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendTable appends the rows of t (schema must match by arity and kind) in
// the order perm lists them, or all of them in table order when perm is nil.
// It is Append column-wise: the tail fills by column ranges, string codes
// translate through one array per column — resolved in row order, so the
// file's dictionaries grow exactly as Append would grow them.
func (w *Writer) AppendTable(t *dataset.Table, perm []int) error {
	if t.NumCols() != len(w.fields) {
		return fmt.Errorf("zpack: table has %d columns, file schema has %d", t.NumCols(), len(w.fields))
	}
	for j, fd := range w.fields {
		if c := t.Columns()[j]; c.Field.Kind != fd.Kind {
			return fmt.Errorf("zpack: table schema does not match file schema at column %q", fd.Name)
		}
	}
	n := t.NumRows()
	if perm != nil {
		n = len(perm)
	}
	if n == 0 {
		return nil
	}
	w.dirty = true
	rm := dataset.NewRemap(t)
	for lo := 0; lo < n; {
		hi := min(n, lo+engine.SegmentSize-w.tail.NumRows())
		if perm == nil {
			w.tail.AppendRange(t, lo, hi, rm)
		} else {
			w.tail.AppendGather(t, perm[lo:hi], rm)
		}
		lo = hi
		if w.tail.NumRows() == engine.SegmentSize {
			if err := w.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal writes the full tail segment's blocks, captures its zone maps, and
// empties the tail.
func (w *Writer) seal() error {
	refs, err := w.writeSegmentBlocks(w.tail)
	if err != nil {
		return err
	}
	rec := sealedSeg{
		rows:    w.tail.NumRows(),
		blocks:  refs,
		num:     make(map[string]numZone),
		present: make(map[string][]uint64),
	}
	w.captureZones(w.tail, &rec)
	w.sealed = append(w.sealed, rec)
	w.rowsSealed += int64(rec.rows)
	w.tail.Truncate()
	return nil
}

// captureZones computes the single-segment zone maps of a (<= SegmentSize
// rows) buffer table through engine.ComputeZones, the same code the
// in-memory column store uses, so skipping proofs agree across backends.
func (w *Writer) captureZones(t *dataset.Table, rec *sealedSeg) {
	zones := engine.ComputeZones(t)
	for _, fd := range w.fields {
		z := zones[fd.Name]
		if fd.Kind == dataset.KindString {
			rec.present[fd.Name] = z.Present
		} else {
			rec.num[fd.Name] = numZone{min: z.Min[0], max: z.Max[0], nan: z.NaN[0]}
		}
	}
}

// writeSegmentBlocks encodes one block per column, back to back in the
// writer's reused buffer, and writes them at the current end of file in one
// call, returning their index entries.
func (w *Writer) writeSegmentBlocks(t *dataset.Table) ([]blockRef, error) {
	refs := make([]blockRef, t.NumCols())
	w.buf = w.buf[:0]
	for j, c := range t.Columns() {
		from := len(w.buf)
		w.buf = appendBlock(w.buf, c, t.NumRows())
		refs[j] = blockRef{
			off: w.writeOff + int64(from),
			len: int64(len(w.buf) - from),
			crc: crc32.Checksum(w.buf[from:], castagnoli),
		}
	}
	if _, err := w.f.WriteAt(w.buf, w.writeOff); err != nil {
		return nil, err
	}
	w.writeOff += int64(len(w.buf))
	return refs, nil
}

// Flush commits the current state: the partial tail segment's blocks (if
// any), then a fresh footer and trailer, are appended at the end of the
// file and synced. A reader that opened before the flush keeps resolving
// its old footer's offsets — nothing it references is overwritten.
func (w *Writer) Flush() error {
	if !w.dirty {
		return nil
	}
	segs := make([]segMeta, 0, len(w.sealed)+1)
	records := w.sealed
	for _, rec := range w.sealed {
		segs = append(segs, segMeta{rows: rec.rows, blocks: rec.blocks})
	}
	if w.tail.NumRows() > 0 {
		refs, err := w.writeSegmentBlocks(w.tail)
		if err != nil {
			return err
		}
		rec := sealedSeg{rows: w.tail.NumRows(), blocks: refs,
			num: make(map[string]numZone), present: make(map[string][]uint64)}
		w.captureZones(w.tail, &rec)
		segs = append(segs, segMeta{rows: rec.rows, blocks: refs})
		records = append(append([]sealedSeg(nil), w.sealed...), rec)
	}
	foot := &footer{
		name:    w.name,
		fields:  w.fields,
		nrows:   w.Rows(),
		segs:    segs,
		dicts:   make(map[string][]string),
		intVals: make(map[string][]int64),
		zones:   make(map[string]*engine.ZoneData),
	}
	for _, c := range w.tail.Columns() {
		switch {
		case c.Field.Kind == dataset.KindString:
			foot.dicts[c.Field.Name] = c.Dict()
		case c.Coded():
			vals := slices.Clone(c.IntDict())
			slices.Sort(vals)
			foot.intVals[c.Field.Name] = vals
		}
	}
	w.buildFooterZones(foot, records)
	payload := foot.encode()
	footerOff := w.writeOff
	if _, err := w.f.WriteAt(payload, footerOff); err != nil {
		return err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint64(tr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(tr[16:20], crc32.Checksum(payload, castagnoli))
	copy(tr[20:24], trailerMagic[:])
	if _, err := w.f.WriteAt(tr[:], footerOff+int64(len(payload))); err != nil {
		return err
	}
	w.writeOff = footerOff + int64(len(payload)) + trailerSize
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// buildFooterZones assembles the footer's per-column zone arrays from the
// per-segment records, padding categorical presence bitsets to the final
// dictionary word count.
func (w *Writer) buildFooterZones(foot *footer, records []sealedSeg) {
	nseg := len(records)
	for _, fd := range w.fields {
		z := &engine.ZoneData{}
		if fd.Kind == dataset.KindString {
			z.Words = (len(foot.dicts[fd.Name]) + 63) / 64
			if z.Words == 0 {
				z.Words = 1
			}
			z.Present = make([]uint64, nseg*z.Words)
			for i, rec := range records {
				copy(z.Present[i*z.Words:(i+1)*z.Words], rec.present[fd.Name])
			}
		} else {
			z.Min = make([]float64, nseg)
			z.Max = make([]float64, nseg)
			z.NaN = make([]bool, nseg)
			for i, rec := range records {
				nz := rec.num[fd.Name]
				z.Min[i], z.Max[i], z.NaN[i] = nz.min, nz.max, nz.nan
			}
		}
		foot.zones[fd.Name] = z
	}
}

// Close flushes any uncommitted state and closes the file.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Discard closes the file WITHOUT flushing, abandoning everything buffered
// or written since the last commit (the trailer still points at the last
// committed footer, so the file stays readable at that state). Use it to
// drop a writer whose in-memory state may have diverged from the file after
// a failed Append or Flush, then OpenAppend to recover.
func (w *Writer) Discard() { w.f.Close() }

// Build writes t to a new zpack file at path in one shot: create, append
// every row, flush, close. A failed build removes what it wrote of the file.
func Build(path string, t *dataset.Table) error {
	w, err := Create(path, t.Name, t.Fields())
	if err != nil {
		return err
	}
	if err := w.AppendTable(t, nil); err != nil {
		w.Discard()
		os.Remove(path)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// appendBlock appends the first rows values of a column as its typed block
// payload: u32 dictionary codes for categorical columns, u64 two's-complement
// or IEEE-754 bits for int and float columns, all little-endian — whatever the
// column's layout in memory.
func appendBlock(out []byte, c *dataset.Column, rows int) []byte {
	n := len(out)
	width := blockWidth(c.Field.Kind)
	out = slices.Grow(out, rows*width)[:n+rows*width]
	switch pc := c.Codes(); {
	case c.Field.Kind == dataset.KindFloat:
		for i, v := range c.Floats()[:rows] {
			binary.LittleEndian.PutUint64(out[n+i*8:], math.Float64bits(v))
		}
	case !c.Coded():
		for i, v := range c.Ints()[:rows] {
			binary.LittleEndian.PutUint64(out[n+i*8:], uint64(v))
		}
	case pc.U16 != nil:
		putCodes(out[n:], pc.U16[:rows], c.IntDict())
	case pc.U32 != nil:
		putCodes(out[n:], pc.U32[:rows], c.IntDict())
	default:
		putCodes(out[n:], pc.U8[:rows], c.IntDict())
	}
	return out
}

// putCodes encodes a dictionary-coded column's block: the codes themselves as
// u32s for a categorical column (vals is nil), the values they stand for as
// u64s for an integer one.
func putCodes[W dataset.Code](out []byte, codes []W, vals []int64) {
	if vals == nil {
		for i, code := range codes {
			binary.LittleEndian.PutUint32(out[i*4:], uint32(code))
		}
		return
	}
	for i, code := range codes {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(vals[code]))
	}
}
