package zpack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/par"
)

// Writer builds or extends a zpack file. Rows appended through it buffer
// into an open tail segment; the tail seals at engine.SegmentSize rows (its
// zone maps are computed and its blocks written), and Flush commits the
// current state by appending the partial tail's blocks plus a fresh footer
// and trailer at the end of the file. Committed byte ranges are never
// rewritten, so readers holding an older footer keep a consistent snapshot.
// Every block is written at the width the tail's array has when it is written.
//
// A Writer is not safe for concurrent use; callers serialize appends.
type Writer struct {
	f      *os.File
	name   string
	fields []dataset.Field

	writeOff int64
	sealed   []sealedSeg // every one engine.SegmentSize rows
	// tail buffers the open segment. Its columns' dictionaries outlive the
	// segments (Truncate keeps them) and are the file's: the categorical ones,
	// and each integer column's distinct values — until they pass
	// dataset.MaxIntDictCardinality, from when the column is raw for good.
	tail *dataset.Table
	// blockDicts[j] is the value dictionary the code blocks of int column j
	// written so far index; the footer keeps it once the column has gone raw.
	blockDicts [][]int64
	dirty      bool
	// unnamed is set for a spill, a file unlinked before its first byte:
	// nothing can read it after a crash, so Flush does not sync it.
	unnamed bool
}

// sealedSeg is one committed-side segment: its block index, and its zone maps
// as segment at of zones, one per column in schema order. Categorical
// presence bitsets are padded to the final dictionary size when the footer is
// rendered (dictionaries only grow).
type sealedSeg struct {
	rows   int
	blocks []blockRef
	zones  []*engine.ZoneData
	at     int
}

// Create starts a new zpack file at path for the given schema, truncating
// any existing file. The dataset name is recorded in the footer.
func Create(path, name string, fields []dataset.Field) (*Writer, error) {
	if err := checkSchema(name, fields); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w, err := newWriter(f, name, fields)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// checkSchema rejects what a footer cannot name: an empty dataset name, no
// columns, an empty or duplicate column name.
func checkSchema(name string, fields []dataset.Field) error {
	if name == "" {
		return fmt.Errorf("zpack: dataset name must not be empty")
	}
	if len(fields) == 0 {
		return fmt.Errorf("zpack: schema must have at least one column")
	}
	seen := make(map[string]bool, len(fields))
	for _, fd := range fields {
		if fd.Name == "" || seen[fd.Name] {
			return fmt.Errorf("zpack: invalid schema: empty or duplicate column %q", fd.Name)
		}
		seen[fd.Name] = true
	}
	return nil
}

// newWriter writes the header of a new file into the empty f and returns the
// Writer that fills it.
func newWriter(f *os.File, name string, fields []dataset.Field) (*Writer, error) {
	var hdr [headerSize]byte
	copy(hdr[:4], headerMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return nil, err
	}
	w := &Writer{
		f:          f,
		name:       name,
		fields:     append([]dataset.Field(nil), fields...),
		writeOff:   headerSize,
		blockDicts: make([][]int64, len(fields)),
		dirty:      true, // a fresh file has no committed footer yet
	}
	w.tail = dataset.NewTable(name, w.fields)
	return w, nil
}

// OpenAppend opens an existing zpack file for appending: the footer is read
// back, sealed segments and dictionaries are restored, and a trailing
// partial segment (if any) is loaded into the open tail buffer so new rows
// keep accreting into it. A version 1 file is refused: compacting it
// rewrites it as the current version.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	foot, size, err := readFooter(f)
	if err == nil && foot.version != Version {
		err = fmt.Errorf("zpack: %s is format v%d, which this build reads but does not append to: upgrade it with `zpack compact %s`", path, foot.version, path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:          f,
		name:       foot.name,
		fields:     foot.fields,
		writeOff:   size,
		blockDicts: make([][]int64, len(foot.fields)),
		tail:       dataset.NewTable(foot.name, foot.fields),
	}
	// Split the footer's segments into sealed ones and the open tail.
	nsealed := len(foot.segs)
	if nsealed > 0 && foot.segs[nsealed-1].rows < engine.SegmentSize {
		nsealed--
	}
	zones := make([]*engine.ZoneData, len(foot.fields))
	for j, fd := range foot.fields {
		zones[j] = foot.zones[fd.Name]
	}
	for i, s := range foot.segs[:nsealed] {
		w.sealed = append(w.sealed, sealedSeg{rows: s.rows, blocks: s.blocks, zones: zones, at: i})
	}
	// The tail carries the file's dictionaries so far, so its codes stay
	// consistent with every sealed block.
	for j, c := range w.tail.Columns() {
		switch vals, ok := foot.intVals[c.Field.Name]; {
		case c.Field.Kind == dataset.KindString:
			c.SetDict(foot.dicts[c.Field.Name])
		case ok:
			c.SetIntDict(vals)
			w.blockDicts[j] = vals
		case c.Field.Kind == dataset.KindInt:
			c.SetRawInts() // exceeded the bound in a prior session
			w.blockDicts[j] = foot.oldInts[c.Field.Name]
		}
	}
	if nsealed < len(foot.segs) {
		w.tail.Presize(foot.segs[nsealed].rows)
		if err := readSegment(f, foot, nsealed, w.tail, 0, 0); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// Rows returns the total row count, sealed plus buffered tail.
func (w *Writer) Rows() int64 { return int64(len(w.sealed)*engine.SegmentSize + w.tail.NumRows()) }

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

// AppendTable appends the rows of t (schema must match by arity and kind).
// Into a file without rows it is the bulk path Build takes, with t as its
// own one chunk. Other rows fill the tail by column ranges, t's codes
// translated through one array per column — resolved in row order, so the
// file's dictionaries grow exactly as Append would grow them.
func (w *Writer) AppendTable(t *dataset.Table) error {
	if t.NumCols() != len(w.fields) {
		return fmt.Errorf("zpack: table has %d columns, file schema has %d", t.NumCols(), len(w.fields))
	}
	for j, fd := range w.fields {
		if c := t.Columns()[j]; c.Field.Kind != fd.Kind {
			return fmt.Errorf("zpack: table schema does not match file schema at column %q", fd.Name)
		}
	}
	if w.Rows() == 0 {
		return w.appendChunks(t.Chunks())
	}
	w.dirty = w.dirty || t.NumRows() > 0
	rm := dataset.NewRemap(t)
	for lo, n := 0, t.NumRows(); lo < n; {
		hi := min(n, lo+engine.SegmentSize-w.tail.NumRows())
		w.tail.AppendRange(t, lo, hi, rm)
		lo = hi
		if w.tail.NumRows() == engine.SegmentSize {
			if err := w.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendChunks is the bulk path into a file without rows: the chunks' merged
// dictionaries become the file's, their full segments are sealed straight
// from them, and the rows past the last full segment fill the tail.
func (w *Writer) appendChunks(src *dataset.Chunks) error {
	n := src.NumRows()
	if n == 0 {
		return nil
	}
	w.dirty = true
	for j, c := range w.tail.Columns() {
		switch d := src.Dicts().Columns()[j]; {
		case c.Field.Kind == dataset.KindString:
			c.SetDict(d.Dict())
		case d.Coded():
			c.SetIntDict(d.IntDict())
		case c.Field.Kind == dataset.KindInt:
			c.SetRawInts()
		}
	}
	full := n - n%engine.SegmentSize
	if full > 0 {
		recs, err := w.writeSegments(src, full)
		if err != nil {
			return err
		}
		w.sealed = append(w.sealed, recs...)
	}
	if full < n {
		w.tail.Presize(n - full)
		src.CopyRows(w.tail, 0, full, n)
	}
	return nil
}

// seal writes the full tail segment's blocks, captures its zone maps, and
// empties the tail.
func (w *Writer) seal() error {
	recs, err := w.writeSegments(w.tail.Chunks(), w.tail.NumRows())
	if err != nil {
		return err
	}
	w.sealed = append(w.sealed, recs...)
	w.tail.Truncate()
	return nil
}

// writeSegments writes rows [0, n) of src at the end of the file as segments
// of engine.SegmentSize rows (the last may be partial) and returns their
// records. Every block's width is known from src's layouts, so so is every
// segment's offset, and the segments are sealed — their rows remapped into a
// segment buffer, their zone maps computed, their blocks checksummed and
// written — on up to GOMAXPROCS workers (par.Do), in any order. A failure
// stops the sealing; the error reported is the lowest failing segment's.
func (w *Writer) writeSegments(src *dataset.Chunks, n int) ([]sealedSeg, error) {
	const size = engine.SegmentSize
	rowBytes := 0
	for _, c := range src.Dicts().Columns() {
		rowBytes += blockWidth(c)
	}
	recs := make([]sealedSeg, (n+size-1)/size)
	workers := runtime.GOMAXPROCS(0)
	segs := make([]*dataset.Table, min(workers, len(recs))) // one scratch segment a worker
	err := par.Do(len(recs), workers, func(k, s int) error {
		lo, hi := s*size, min(n, (s+1)*size)
		segs[k] = src.Segment(lo, hi, segs[k])
		off := w.writeOff + int64(lo*rowBytes)
		end, err := w.sealSegment(segs[k], off, &recs[s])
		if err == nil && end != off+int64((hi-lo)*rowBytes) {
			err = fmt.Errorf("zpack: segment %d is %d bytes, its columns' widths say %d", s, end-off, (hi-lo)*rowBytes)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	w.writeOff += int64(n * rowBytes)
	for j, c := range src.Dicts().Columns() {
		if c.Field.Kind == dataset.KindInt && c.Coded() {
			w.blockDicts[j] = c.IntDict()
		}
	}
	return recs, nil
}

// sealSegment writes the blocks of seg, one segment's rows, at off, one after
// another in column order, fills in its record and returns where its blocks
// end. A block is its column's array as memory holds it. The zone maps are
// engine.ColumnZones, the same code the in-memory column store uses, so
// skipping proofs agree across back-ends.
func (w *Writer) sealSegment(seg *dataset.Table, off int64, rec *sealedSeg) (int64, error) {
	rows := seg.NumRows()
	*rec = sealedSeg{rows: rows, blocks: make([]blockRef, seg.NumCols()), zones: make([]*engine.ZoneData, seg.NumCols())}
	for j, c := range seg.Columns() {
		rec.zones[j] = engine.ColumnZones(c, rows)
		b := rowBytes(c, 0, rows)
		if bigEndian {
			b = slices.Clone(b)
			swapWords(b, len(b)/rows)
		}
		rec.blocks[j] = blockRef{off: off, len: int64(len(b)), crc: crc32.Checksum(b, castagnoli), enc: uint8(len(b) / rows)}
		if _, err := w.f.WriteAt(b, off); err != nil {
			return off, err
		}
		off += int64(len(b))
	}
	return off, nil
}

// blockWidth is the bytes a row of c takes in a block: its array's width.
func blockWidth(c *dataset.Column) int {
	if c.Coded() {
		return c.Codes().Width()
	}
	return 8
}

// Flush commits the current state: the partial tail segment's blocks (if
// any), then a fresh footer and trailer, are appended at the end of the
// file and synced (a spill's are not: see unnamed). A reader that opened before the flush keeps resolving
// its old footer's offsets — nothing it references is overwritten.
func (w *Writer) Flush() error {
	if !w.dirty {
		return nil
	}
	records := w.sealed
	if rows := w.tail.NumRows(); rows > 0 {
		recs, err := w.writeSegments(w.tail.Chunks(), rows)
		if err != nil {
			return err
		}
		records = append(slices.Clip(w.sealed), recs...)
	}
	foot := &footer{
		name:    w.name,
		fields:  w.fields,
		nrows:   w.Rows(),
		segs:    make([]segMeta, len(records)),
		dicts:   make(map[string][]string),
		intVals: make(map[string][]int64),
		oldInts: make(map[string][]int64),
		zones:   make(map[string]*engine.ZoneData),
	}
	for i, rec := range records {
		foot.segs[i] = segMeta{rows: rec.rows, blocks: rec.blocks}
	}
	for j, c := range w.tail.Columns() {
		switch name := c.Field.Name; {
		case c.Field.Kind == dataset.KindString:
			foot.dicts[name] = c.Dict()
		case c.Coded():
			foot.intVals[name] = c.IntDict()
		case w.blockDicts[j] != nil:
			foot.oldInts[name] = w.blockDicts[j]
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
	if !w.unnamed {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.dirty = false
	return nil
}

// buildFooterZones assembles the footer's per-column zone arrays from the
// segment records, padding categorical presence bitsets to the final
// dictionary word count.
func (w *Writer) buildFooterZones(foot *footer, records []sealedSeg) {
	nseg := len(records)
	for j, fd := range w.fields {
		z := &engine.ZoneData{}
		if fd.Kind == dataset.KindString {
			z.Words = max(1, (len(foot.dicts[fd.Name])+63)/64)
			z.Present = make([]uint64, nseg*z.Words)
			for i, rec := range records {
				rz := rec.zones[j]
				copy(z.Present[i*z.Words:(i+1)*z.Words], rz.Present[rec.at*rz.Words:(rec.at+1)*rz.Words])
			}
		} else {
			z.Min = make([]float64, nseg)
			z.Max = make([]float64, nseg)
			z.NaN = make([]bool, nseg)
			for i, rec := range records {
				rz := rec.zones[j]
				z.Min[i], z.Max[i], z.NaN[i] = rz.Min[rec.at], rz.Max[rec.at], rz.NaN[rec.at]
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

// Source is what Build and Spill write: a *dataset.Table, or the chunks a CSV
// decodes into (dataset.DecodeCSV), which are never stitched into a table.
type Source interface {
	Chunks() *dataset.Chunks
}

// Build writes src to a new zpack file at path in one shot — create, the bulk
// path, flush, close — with src's merged dictionaries as the file's. A failed
// build removes what it wrote of the file.
func Build(path string, src Source) error {
	ch := src.Chunks()
	w, err := Create(path, ch.Name, ch.Fields())
	if err != nil {
		return err
	}
	if err := w.appendChunks(ch); err != nil {
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

// Spill writes src, as Build would, to a file in dir that is unlinked as soon
// as it is created, and returns a Reader over it: scans read the blocks they
// need from it, and nothing of the table stays in memory. Only the Reader's descriptor
// keeps the file alive, so its space is freed at Close or when the process
// exits, however it exits, and it is not synced: nothing can read it after a
// crash. A spilled Reader is read-only: it is never appended to, reopened or
// compacted.
func Spill(src Source, dir string) (*Reader, error) {
	ch := src.Chunks()
	if err := checkSchema(ch.Name, ch.Fields()); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, ".zpack-spill-*")
	if err != nil {
		return nil, err
	}
	r, err := spill(f, ch)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func spill(f *os.File, ch *dataset.Chunks) (*Reader, error) {
	if err := os.Remove(f.Name()); err != nil {
		return nil, err
	}
	w, err := newWriter(f, ch.Name, ch.Fields())
	if err != nil {
		return nil, err
	}
	w.unnamed = true
	if err := w.appendChunks(ch); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	r, err := newReader(f, "")
	if err != nil {
		return nil, err
	}
	// The merged dictionaries rather than the footer's copies of them: the
	// same values, held once.
	for j, c := range r.table.Columns() {
		c.ShareDicts(ch.Dicts().Columns()[j])
	}
	r.owns.Store(true)
	return r, nil
}
