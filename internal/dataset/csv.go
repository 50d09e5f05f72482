package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// maxSniff is how many data records decide the column kinds.
	maxSniff = 1000
	// csvBlockSize is how much input one decode task takes: large enough that
	// a block's dictionaries and column chunks amortise, small enough that
	// GOMAXPROCS blocks in flight are noise beside the table.
	csvBlockSize = 1 << 20
	// seqChunkRows caps a chunk of the sequential decode, which cannot count
	// records ahead of parsing them and so grows its chunks by append: the cap
	// bounds what that growth throws away.
	seqChunkRows = 1 << 16
)

// ReadCSV loads a table from CSV with a header row. Column kinds are inferred
// from the first maxSniff data rows: a column is int if every sampled cell
// parses as int, float if every cell parses as a number, otherwise string.
// It is DecodeCSV's chunks stitched into one table, each column allocated
// once, exact-size.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	return readCSV(name, r, csvBlockSize)
}

// DecodeCSV decodes CSV as ReadCSV does and returns the decoded chunks, their
// dictionaries merged, for a caller that writes the rows somewhere rather
// than keep them as a table (zpack.Build, zpack.Spill).
//
// The input streams through in blocks cut at record boundaries, GOMAXPROCS
// workers decoding one block each at a time, straight from bytes into typed
// column chunks with a chunk-local dictionary. The chunks' dictionaries are
// then merged in file order, so dictionaries come out in first-appearance
// order whatever the worker count. A newline ends a record only while no
// quote is open, so from the first block that contains a '"' the rest of the
// input is decoded sequentially by encoding/csv into chunks of the same kind.
func DecodeCSV(name string, r io.Reader) (*Chunks, error) {
	return decodeCSV(name, r, csvBlockSize)
}

func readCSV(name string, r io.Reader, blockSize int) (*Table, error) {
	c, err := decodeCSV(name, r, blockSize)
	if err != nil {
		return nil, err
	}
	return c.Table(), nil
}

func decodeCSV(name string, r io.Reader, blockSize int) (*Chunks, error) {
	br := &blockReader{r: r, size: blockSize}
	ld := &csvLoad{}

	// The head: whole blocks until they hold the header and the sniff window.
	var head []byte
	for records := 0; records <= maxSniff; {
		b, err := br.next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if head == nil {
			head = b
		} else {
			head = append(head, b...)
		}
		if bytes.IndexByte(b, '"') >= 0 {
			if err := ld.sequential(io.MultiReader(bytes.NewReader(head), br.rest())); err != nil {
				return nil, err
			}
			return ld.merge(name), nil
		}
		for rest := b; len(rest) > 0; {
			var line []byte
			if line, rest = nextLine(rest); len(line) > 0 {
				records++
			}
		}
	}
	body := ld.sniffHead(head)
	if ld.fields == nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", io.EOF)
	}

	// A decode job holds one block buffer from start to finish, so the
	// buffers in circulation bound both the blocks in flight and the memory.
	procs := runtime.GOMAXPROCS(0)
	bufs := make(chan []byte, procs)
	for i := 0; i < procs; i++ {
		bufs <- nil
	}
	type job struct {
		ch         *csvChunk
		block, buf []byte
		rows       int // an upper bound on the block's records
	}
	jobs := make(chan job)
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		tail   io.Reader // what the sequential decode takes over, if anything
		rerr   error
	)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &csvDecoder{cols: make([]decodedColumn, len(ld.fields))}
			for jb := range jobs {
				if jb.ch.decode(d, jb.block, jb.rows); jb.ch.err != nil {
					failed.Store(true)
				}
				bufs <- jb.buf
			}
		}()
	}
	submit := func(block, buf []byte) {
		ch := &csvChunk{t: NewTable("", ld.fields)}
		ld.chunks = append(ld.chunks, ch)
		jobs <- job{ch, block, buf, bytes.Count(block, []byte{'\n'}) + 1}
	}
	submit(body, <-bufs)
	for !failed.Load() {
		b, err := br.next(<-bufs)
		if err != nil {
			if err != io.EOF {
				rerr = fmt.Errorf("dataset: reading CSV: %w", err)
			}
			break
		}
		if bytes.IndexByte(b, '"') >= 0 {
			tail = io.MultiReader(bytes.NewReader(b), br.rest())
			break
		}
		submit(b, b[:0])
	}
	close(jobs)
	wg.Wait()
	// Chunks are in file order and each stops at its first bad row, so the
	// first failed chunk holds the lowest failing row of the input.
	rows := 0
	for _, ch := range ld.chunks {
		if ch.err != nil {
			return nil, rowError(rows+ch.t.nrows, ch.err)
		}
		rows += ch.t.nrows
	}
	if rerr != nil {
		return nil, rerr
	}
	if tail != nil {
		if err := ld.sequential(tail); err != nil {
			return nil, err
		}
	}
	return ld.merge(name), nil
}

// rowError names the 1-based data row a failure belongs to; row counts the
// good rows before it.
func rowError(row int, err error) error {
	return fmt.Errorf("dataset: CSV row %d: %w", row+1, err)
}

// csvLoad is one ReadCSV in progress: the schema once sniffed, and the
// decoded chunks in file order.
type csvLoad struct {
	fields []Field
	chunks []*csvChunk
}

// csvChunk is a run of decoded rows: a small table with its own dictionaries.
// A failed decode leaves the good rows before the failure in t and the
// failure, without its row, in err.
type csvChunk struct {
	t   *Table
	err error
}

// newChunk returns an empty chunk with room for rows rows, so filling it
// reallocates nothing.
func newChunk(fields []Field, rows int) *csvChunk {
	t := NewTable("", fields)
	for _, c := range t.cols {
		c.allocate(0, rows, false)
	}
	return &csvChunk{t: t}
}

// merge hands the decoded chunks over, their dictionaries merged.
func (ld *csvLoad) merge(name string) *Chunks {
	parts := make([]*Table, len(ld.chunks))
	for i, ch := range ld.chunks {
		parts[i] = ch.t
	}
	return mergeChunks(name, ld.fields, parts)
}

// blockReader cuts a stream into blocks that end at a newline.
type blockReader struct {
	r     io.Reader
	size  int
	carry []byte // read already, past the last block's final newline
	eof   bool
}

// next returns the next block in buf's storage (grown if need be): the carry
// plus at least one read of size bytes, up to and including its last newline.
// The final block ends where the input does. It returns io.EOF once nothing
// is left.
func (br *blockReader) next(buf []byte) ([]byte, error) {
	if br.eof {
		return nil, io.EOF
	}
	// Room for a carry of a sixteenth of a block besides the read, so that a
	// recycled buffer is not reallocated for a carry a few bytes longer.
	if cap(buf) < len(br.carry)+br.size {
		buf = make([]byte, 0, len(br.carry)+br.size+br.size/16)
	}
	buf = append(buf[:0], br.carry...)
	for {
		n := len(buf)
		buf = slices.Grow(buf, br.size)
		m, err := io.ReadFull(br.r, buf[n:n+br.size])
		buf = buf[:n+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			br.eof, br.carry = true, nil
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		// Only the new bytes can hold a newline: the carry has none.
		if i := bytes.LastIndexByte(buf[n:], '\n'); i >= 0 {
			cut := n + i + 1
			br.carry = append(br.carry[:0], buf[cut:]...)
			return buf[:cut], nil
		}
	}
}

// rest returns everything next has not handed out yet.
func (br *blockReader) rest() io.Reader {
	if br.eof {
		return bytes.NewReader(nil)
	}
	return io.MultiReader(bytes.NewReader(br.carry), br.r)
}

// nextLine splits the first line off quote-free data the way encoding/csv
// reads one: up to the newline (or the end), less one trailing '\r'. An empty
// line is no record.
func nextLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line = data
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// sniffHead reads the header and the sniff window out of the quote-free head
// of the input, sets the schema (nil when there is no header) and returns the
// data that follows the header line.
func (ld *csvLoad) sniffHead(head []byte) (body []byte) {
	var line []byte
	for len(line) == 0 {
		if len(head) == 0 {
			return nil
		}
		line, head = nextLine(head)
	}
	var names []string
	for _, cell := range bytes.Split(line, []byte{','}) {
		names = append(names, string(cell))
	}
	sn := newSniffer(len(names))
	for rest := head; len(rest) > 0 && sn.records < maxSniff; {
		if line, rest = nextLine(rest); len(line) == 0 {
			continue
		}
		sn.records++
		for j := 0; ; j++ {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				sn.observe(j, line)
				break
			}
			sn.observe(j, line[:i])
			line = line[i+1:]
		}
	}
	ld.fields = sn.fields(names)
	return head
}

// sniffer accumulates what the sniff window says about each column.
type sniffer struct {
	records        int
	notInt, notNum []bool
}

func newSniffer(cols int) *sniffer {
	return &sniffer{notInt: make([]bool, cols), notNum: make([]bool, cols)}
}

// observe takes one cell of the window; cells of an over-long row, which
// fails the load anyway, are ignored, and so are the tests a column has
// failed already.
func (sn *sniffer) observe(col int, cell []byte) {
	if col >= len(sn.notInt) {
		return
	}
	if !sn.notInt[col] {
		if _, err := parseInt(cell); err != nil {
			sn.notInt[col] = true
		}
	}
	if !sn.notNum[col] {
		if _, err := parseFloat(cell); err != nil {
			sn.notNum[col] = true
		}
	}
}

func (sn *sniffer) fields(names []string) []Field {
	fields := make([]Field, len(names))
	for j, name := range names {
		fields[j] = Field{Name: name, Kind: KindString}
		switch {
		case sn.records == 0:
		case !sn.notInt[j]:
			fields[j].Kind = KindInt
		case !sn.notNum[j]:
			fields[j].Kind = KindFloat
		}
	}
	return fields
}

// csvDecoder is one decode worker's state, kept across the chunks it
// decodes: per column, what the worker's last chunk ended with.
type csvDecoder struct {
	cols []decodedColumn
}

type decodedColumn struct {
	short       shortStrings // string columns: the short-value table
	width, card int          // coded columns: code width and dictionary size
	// Integer columns: where the dense value index began and how far it
	// reached, when it stayed dense.
	base int64
	span int
}

// decode parses a quote-free block of at most rows records into the chunk,
// stopping at the first bad row. Each cell is parsed where it lies, the
// parse finding its end; only a bad row has its commas counted, so that a
// record of the wrong arity is reported as such before any cell of it.
//
// The chunk's storage starts at the code widths and dictionary sizes the
// worker's last chunk ended with, so that a chunk seldom widens or regrows.
// Its string columns' dictionaries are indexed by the worker's short-string
// tables as well as by their maps: nothing but this decode looks up a value
// in a chunk.
func (ch *csvChunk) decode(d *csvDecoder, block []byte, rows int) {
	cols := ch.t.cols
	d.allocate(ch.t, rows)
	for j, c := range cols {
		dc := &d.cols[j]
		if c.Field.Kind == KindString {
			dc.short.reset()
			c.dict = make([]string, 0, dc.card)
		} else if c.Coded() {
			c.ivals = make([]int64, 0, dc.card)
			if dc.span > 0 {
				c.ivalIx = intIndex{base: dc.base, dense: make([]int32, dc.span)}
			}
		}
	}
	defer func() {
		for j, c := range cols {
			if dc := &d.cols[j]; c.Coded() {
				dc.width, dc.card, dc.span = c.codes.Width(), c.Cardinality(), 0
				if c.Field.Kind == KindString {
					dc.short.prev = c.dict
				}
				if c.Field.Kind == KindInt && c.ivalIx.m == nil {
					dc.base, dc.span = c.ivalIx.base, len(c.ivalIx.dense)
				}
			}
		}
	}()
	last := len(cols) - 1
	for pos := 0; pos < len(block); {
		// An empty line is no record.
		switch {
		case block[pos] == '\n':
			pos++
			continue
		case block[pos] == '\r' && (pos+1 == len(block) || block[pos+1] == '\n'):
			pos += 2
			continue
		}
		start := pos
		for j, c := range cols {
			// The short cuts inline; anything else is a whole cell for strconv.
			var (
				term int
				err  error
				ok   bool
			)
			switch c.Field.Kind {
			case KindInt:
				var v int64
				if v, term, ok = scanInt(block, pos); ok {
					if term, ok = numberEnd(block, term); ok {
						if code, seen := c.ivalIx.lookup(v); seen && !c.rawInts {
							c.codes.append(code)
						} else {
							c.AppendInt(v)
						}
					}
				}
			case KindFloat:
				var f float64
				if f, term, ok = scanFloat(block, pos); ok {
					if term, ok = numberEnd(block, term); ok {
						c.floats = append(c.floats, f)
					}
				}
			default:
				term, ok = d.cols[j].short.appendString(c, block, pos), true
			}
			if !ok {
				var end int
				end, term = cellEnd(block, pos)
				err = c.appendCell(block[pos:end])
			}
			if lineEnds := term == len(block) || block[term] == '\n'; err != nil || lineEnds != (j == last) {
				line, _ := nextLine(block[start:])
				if n := len(commas(nil, line)) + 1; n != len(cols) {
					err = arityError(n, ch.t)
				}
				ch.err = err
				return
			}
			pos = term + 1
		}
		ch.t.nrows++
	}
}

// allocate gives t's columns room for rows rows, the coded ones at the code
// widths the worker's last chunk ended with.
func (d *csvDecoder) allocate(t *Table, rows int) {
	for j, c := range t.cols {
		if c.Coded() {
			c.codes, _ = makeCodes(d.cols[j].width, 0, rows, false)
		} else {
			c.floats = make([]float64, 0, rows)
		}
	}
}

// commas appends the offsets of line's commas to ends, eight bytes at a time.
func commas(ends []int, line []byte) []int {
	i := 0
	for ; i+8 <= len(line); i += 8 {
		for m := zeroBytes(binary.LittleEndian.Uint64(line[i:]) ^ ','*every); m != 0; m &= m - 1 {
			ends = append(ends, i+bits.TrailingZeros64(m)/8)
		}
	}
	for ; i < len(line); i++ {
		if line[i] == ',' {
			ends = append(ends, i)
		}
	}
	return ends
}

// sequential decodes r, which starts at a record boundary, with encoding/csv:
// the whole input when no schema is set yet (header and sniff window first),
// otherwise the records after the chunks already decoded.
func (ld *csvLoad) sequential(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // arity is checked here, with the row's number
	rows := 0
	for _, ch := range ld.chunks {
		rows += ch.t.nrows
	}
	var ch *csvChunk
	add := func(rec []string) error {
		if ch == nil || ch.t.nrows == seqChunkRows {
			ch = newChunk(ld.fields, 0)
			ld.chunks = append(ld.chunks, ch)
		}
		if len(rec) != len(ld.fields) {
			return rowError(rows, arityError(len(rec), ch.t))
		}
		for j, cell := range rec {
			if err := ch.t.cols[j].appendCell([]byte(cell)); err != nil {
				return rowError(rows, err)
			}
		}
		ch.t.nrows++
		rows++
		return nil
	}
	if ld.fields == nil {
		header, err := cr.Read()
		if err != nil {
			return fmt.Errorf("dataset: reading CSV header: %w", err)
		}
		names := append([]string(nil), header...)
		sn := newSniffer(len(names))
		var window [][]string
		for len(window) < maxSniff {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return rowError(len(window), err)
			}
			window = append(window, append([]string(nil), rec...))
			for j, cell := range rec {
				sn.observe(j, []byte(cell))
			}
		}
		sn.records = len(window)
		ld.fields = sn.fields(names)
		for _, rec := range window {
			if err := add(rec); err != nil {
				return err
			}
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return rowError(rows, err)
		}
		if err := add(rec); err != nil {
			return err
		}
	}
}

// arityError reports a record of n cells against t's schema, naming the
// column where the two part ways.
func arityError(n int, t *Table) error {
	if n < len(t.cols) {
		return fmt.Errorf("%d cells, want %d: none for column %q", n, len(t.cols), t.cols[n].Field.Name)
	}
	return fmt.Errorf("%d cells, want %d: cell %d is past the last column %q", n, len(t.cols), len(t.cols)+1, t.cols[len(t.cols)-1].Field.Name)
}

// appendCell parses one CSV cell by the column's kind and appends it.
func (c *Column) appendCell(cell []byte) error {
	switch c.Field.Kind {
	case KindInt:
		i, err := parseInt(cell)
		if err != nil {
			return fmt.Errorf("column %q: %w", c.Field.Name, err)
		}
		c.AppendInt(i)
	case KindFloat:
		f, err := parseFloat(cell)
		if err != nil {
			return fmt.Errorf("column %q: %w", c.Field.Name, err)
		}
		c.floats = append(c.floats, f)
	default:
		c.codes.append(c.codeOf(cell))
	}
	return nil
}

// ReadCSVFile loads a table named name from a CSV file on disk.
func ReadCSVFile(name, path string) (*Table, error) {
	c, err := DecodeCSVFile(name, path)
	if err != nil {
		return nil, err
	}
	return c.Table(), nil
}

// DecodeCSVFile decodes a CSV file on disk into chunks (DecodeCSV).
func DecodeCSVFile(name, path string) (*Chunks, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCSV(name, f)
}

// WriteCSV serializes the table with a header row.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Columns() {
			rec[j] = c.Value(i).String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
