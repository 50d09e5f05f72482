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
	"strconv"
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
//
// The input streams through in blocks cut at record boundaries, GOMAXPROCS of
// them decoding at a time, each straight from bytes into typed column chunks
// with a block-local dictionary; the chunks are then stitched in file order
// into exact-size columns, so dictionaries come out in first-appearance order
// whatever the worker count. A newline ends a record only while no quote is
// open, so from the first block that contains a '"' the rest of the input is
// decoded sequentially by encoding/csv into chunks of the same kind.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	return readCSV(name, r, csvBlockSize)
}

func readCSV(name string, r io.Reader, blockSize int) (*Table, error) {
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
			return ld.stitch(name), nil
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

	// A decode task holds one block buffer from start to finish, so the
	// buffers in circulation bound both the tasks in flight and the memory.
	bufs := make(chan []byte, runtime.GOMAXPROCS(0))
	for i := 0; i < cap(bufs); i++ {
		bufs <- nil
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		tail   io.Reader // what the sequential decode takes over, if anything
		rerr   error
	)
	decode := func(block, buf []byte) {
		ch := newChunk(ld.fields, bytes.Count(block, []byte{'\n'})+1)
		ld.chunks = append(ld.chunks, ch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ch.decode(block); ch.err != nil {
				failed.Store(true)
			}
			bufs <- buf
		}()
	}
	decode(body, <-bufs)
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
		decode(b, b[:0])
	}
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
	return ld.stitch(name), nil
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
		c.allocate(0, rows)
	}
	return &csvChunk{t: t}
}

// stitch concatenates the chunks into the finished table: chunk codes remapped
// into one dictionary per column in chunk order — which is first-appearance
// order, because each chunk's dictionary is. The dictionaries are merged
// first, so every column is allocated once, exact-size, at its final width
// (or as raw int64s, if an integer column's values turn out too many): no
// wider intermediate exists.
func (ld *csvLoad) stitch(name string) *Table {
	rows := 0
	for _, ch := range ld.chunks {
		rows += ch.t.nrows
	}
	t := NewTable(name, ld.fields)
	if rows == 0 {
		return t
	}
	remaps := make([]Remap, len(ld.chunks))
	for i, ch := range ld.chunks {
		// A chunk's whole dictionary, in its own order: every entry occurs in
		// the chunk, first appearances in dictionary order. A raw chunk column
		// had too many values for the finished one to be anything else.
		rm := NewRemap(ch.t)
		for j, c := range t.cols {
			src := ch.t.cols[j]
			if c.Field.Kind == KindInt && !src.Coded() {
				c.SetRawInts()
			}
			for sc := range rm.codes[j] {
				c.resolve(src, int32(sc), rm.codes[j], &rm.left[j])
			}
		}
		remaps[i] = rm
	}
	for _, c := range t.cols {
		c.allocate(0, rows)
	}
	for i, ch := range ld.chunks {
		t.AppendRange(ch.t, 0, ch.t.nrows, remaps[i])
		ld.chunks[i] = nil
	}
	return t
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
		for j, cell := range bytes.Split(line, []byte{','}) {
			sn.observe(j, string(cell))
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
// fails the load anyway, are ignored.
func (sn *sniffer) observe(col int, cell string) {
	if col >= len(sn.notInt) {
		return
	}
	if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
		sn.notInt[col] = true
	}
	if _, err := strconv.ParseFloat(cell, 64); err != nil {
		sn.notNum[col] = true
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

// decode parses a quote-free block of whole records into the chunk, stopping
// at the first bad row.
func (ch *csvChunk) decode(block []byte) {
	cols := ch.t.cols
	ends := make([]int, 0, len(cols)) // where each cell of the line ends
	for len(block) > 0 {
		var line []byte
		if line, block = nextLine(block); len(line) == 0 {
			continue
		}
		ends = append(commas(ends[:0], line), len(line))
		if len(ends) != len(cols) {
			ch.err = arityError(len(ends), ch.t)
			return
		}
		start := 0
		for j, c := range cols {
			if err := c.appendCell(line[start:ends[j]]); err != nil {
				ch.err = err
				return
			}
			start = ends[j] + 1
		}
		ch.t.nrows++
	}
}

// commas appends the offsets of line's commas to ends. Cells are a few bytes
// long, too short for a vectorised search per cell to pay, so it tests eight
// bytes at a time: x has a zero byte where line has a comma, and m the top bit
// of exactly those bytes (the sum cannot carry from one byte into the next).
func commas(ends []int, line []byte) []int {
	const (
		every = 0x0101010101010101
		low7  = 0x7f * every
	)
	i := 0
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:]) ^ (',' * every)
		for m := ^((x&low7 + low7) | x | low7); m != 0; m &= m - 1 {
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
				sn.observe(j, cell)
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
		code, ok := c.dictIx[string(cell)] // no allocation: a lookup key only
		if !ok {
			code = c.codeFor(string(cell))
		}
		c.codes.append(code)
	}
	return nil
}

// parseInt is strconv.ParseInt(cell, 10, 64) with a short cut for the cells
// that cannot overflow: an optional sign and up to 18 digits.
func parseInt(cell []byte) (int64, error) {
	digits := cell
	neg := false
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		neg, digits = digits[0] == '-', digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(cell), 10, 64)
	}
	var v int64
	for _, d := range digits {
		if d -= '0'; d > 9 {
			return strconv.ParseInt(string(cell), 10, 64)
		}
		v = v*10 + int64(d)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseFloat is strconv.ParseFloat(cell, 64) with a short cut for the plain
// decimals [+-]digits[.digits] whose digits make an integer below 2^53 with
// at most 22 of them after the point: both that integer and the power of ten
// are exact float64s, so one IEEE division rounds correctly, which is the
// value ParseFloat returns too.
func parseFloat(cell []byte) (float64, error) {
	digits := cell
	neg := false
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		neg, digits = digits[0] == '-', digits[1:]
	}
	var mant uint64
	n, point := 0, -1 // digits seen; how many of them came before the point
	for _, d := range digits {
		switch {
		case d-'0' <= 9:
			mant = mant*10 + uint64(d-'0')
			n++
		case d == '.' && point < 0:
			point = n
		default:
			return strconv.ParseFloat(string(cell), 64)
		}
	}
	if point < 0 {
		point = n
	}
	if n == 0 || n > 19 || mant >= 1<<53 || n-point >= len(pow10) {
		return strconv.ParseFloat(string(cell), 64)
	}
	f := float64(mant) / pow10[n-point]
	if neg {
		f = -f
	}
	return f, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// ReadCSVFile loads a table named name from a CSV file on disk.
func ReadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, f)
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
