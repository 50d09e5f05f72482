package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refReadCSV is the reader ReadCSV replaced, kept as its reference: every
// record through encoding/csv into [][]string, kinds sniffed from the first
// maxSniff of them, then one typed append per cell.
func refReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", len(records)+2, err)
		}
		records = append(records, rec)
	}
	fields := make([]Field, len(header))
	for j, h := range header {
		fields[j] = Field{Name: h, Kind: refSniffKind(records, j)}
	}
	t := NewTable(name, fields)
	for _, rec := range records {
		for j, cell := range rec {
			switch fields[j].Kind {
			case KindInt:
				i, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: column %q: %w", fields[j].Name, err)
				}
				t.cols[j].AppendInt(i)
			case KindFloat:
				f, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: column %q: %w", fields[j].Name, err)
				}
				t.cols[j].AppendFloat(f)
			default:
				t.cols[j].AppendString(cell)
			}
		}
		t.nrows++
	}
	return t, nil
}

func refSniffKind(records [][]string, col int) Kind {
	n := min(len(records), maxSniff)
	if n == 0 {
		return KindString
	}
	allInt, allNum := true, true
	for i := 0; i < n; i++ {
		cell := records[i][col]
		if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			allNum = false
			break
		}
	}
	switch {
	case allInt:
		return KindInt
	case allNum:
		return KindFloat
	default:
		return KindString
	}
}

// sameTable reports the first difference between two tables: schema, row
// count, dictionary order, then every cell (floats by bit pattern, so NaN
// and the zeros count).
func sameTable(got, want *Table) error {
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, wc := range want.cols {
		gc := got.cols[j]
		if gc.Field != wc.Field {
			return fmt.Errorf("column %d is %+v, want %+v", j, gc.Field, wc.Field)
		}
		if gc.Len() != want.NumRows() {
			return fmt.Errorf("column %q holds %d rows, table says %d", wc.Field.Name, gc.Len(), want.NumRows())
		}
		if fmt.Sprintf("%q", gc.dict) != fmt.Sprintf("%q", wc.dict) {
			return fmt.Errorf("column %q dictionary %q, want %q", wc.Field.Name, gc.dict, wc.dict)
		}
		for s, code := range gc.dict {
			if gc.CodeOf(code) != int32(s) {
				return fmt.Errorf("column %q: CodeOf(%q) = %d, want %d", wc.Field.Name, code, gc.CodeOf(code), s)
			}
		}
		if gc.Coded() != wc.Coded() || !slices.Equal(gc.ivals, wc.ivals) || gc.codes.Width() != wc.codes.Width() {
			return fmt.Errorf("column %q: coded %v at width %d over values %v, want %v at %d over %v", wc.Field.Name,
				gc.Coded(), gc.codes.Width(), gc.ivals, wc.Coded(), wc.codes.Width(), wc.ivals)
		}
		for code, v := range gc.ivals {
			if gc.CodeOfInt(v) != int32(code) {
				return fmt.Errorf("column %q: CodeOfInt(%d) = %d, want %d", wc.Field.Name, v, gc.CodeOfInt(v), code)
			}
		}
		for i := 0; i < want.NumRows(); i++ {
			g, w := gc.Value(i), wc.Value(i)
			if g.Kind != w.Kind || g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
				return fmt.Errorf("column %q row %d: %#v, want %#v", wc.Field.Name, i, g, w)
			}
		}
	}
	return nil
}

// checkAgainstReference loads data both ways and requires the same outcome:
// both fail, or both succeed with identical tables.
func checkAgainstReference(data []byte, blockSize int) error {
	want, werr := refReadCSV("t", bytes.NewReader(data))
	got, gerr := readCSV("t", bytes.NewReader(data), blockSize)
	if (werr != nil) != (gerr != nil) {
		return fmt.Errorf("error %v, reference error %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	return sameTable(got, want)
}

// rowsCSV renders a header and n generated data rows.
func rowsCSV(header string, n int, row func(i int) string) string {
	var b strings.Builder
	b.WriteString(header + "\n")
	for i := 0; i < n; i++ {
		b.WriteString(row(i) + "\n")
	}
	return b.String()
}

func salesRow(i int) string {
	return fmt.Sprintf("p%03d,c%d,%d,%d,%v", i%37, i%5, 2000+i%20, i*7-300, float64(i)*0.37-11)
}

// csvDialects is the input every decoder configuration must agree with the
// reference on.
var csvDialects = map[string]string{
	"plain":               "a,b,c\n1,2.5,x\n2,3.5,y\n",
	"quoted":              "a,b\n\"x,1\",\"line\nbreak\"\n\"say \"\"hi\"\"\",plain\n",
	"quoted header":       "\"a\",b\n1,2\n",
	"crlf":                "a,b\r\n1,x\r\n2,y\r\n",
	"crlf quoted":         "a,b\r\n\"1\",\"x\r\ny\"\r\n",
	"no trailing newline": "a,b\n1,x\n2,y",
	"trailing cr at eof":  "a,b\n1,x\n2,y\r",
	"cr inside":           "a,b\n1,x\ry\n2,\r\r\n",
	"blank lines":         "\n\r\na,b\n\n1,x\n\r\n\n2,y\n\n",
	"header only":         "a,b,c\n",
	"header only no nl":   "a,b,c",
	"empty":               "",
	"only blank lines":    "\n\r\n\n",
	"one column":          "a\n1\n2\n",
	"empty cells":         "a,b,c\n,,\n1,,x\n",
	"short row":           "a,b,c\n1,2,3\n4,5\n6,7,8\n",
	"long row":            "a,b,c\n1,2,3\n4,5,6,7\n",
	"short first row":     "a,b,c\n1\n",
	"non-utf8":            "a,b\n\xff\xfe,1\n\xc3\x28,2\n\xff\xfe,3\n",
	"nul bytes":           "a,b\n\x00,1\nx\x00y,2\n",
	"float forms":         "f\nNaN\n+Inf\n-inf\n0x1p-2\n1e5\n.5\n5.\n-0\n1E-400\n0.1\n123456789012345678901234567890\n",
	"float overflow":      "f\n1.5\n1e999\n",
	"hex only":            "f\n0x10\n0X1P4\n",
	"underscore":          "f\n1_0\n2\n",
	"int forms":           "i\n+5\n-0\n007\n9223372036854775807\n-9223372036854775808\n",
	"int overflow":        "i\n9223372036854775808\n1\n",
	"nineteen digits":     "i\n1000000000000000000\n999999999999999999\n-999999999999999999\n",
	"exact floats":        "f\n0.1\n68.93633004691726\n9007199254740993\n9007199254740992.5\n0.00000000000000000000001\n1.0000000000000000000000\n",
	"spaces":              "a, b\n 1,2 \n3 , 4\n",
	"bare quote":          "a,b\n1,x\"y\n",
	"unterminated quote":  "a,b\n1,\"xy\n",
	"quote after text":    "a,b\n1,2\n3,\"4\"x\n",
	"duplicate header":    "a,a\n1,2\n",
	"long record":         "a,b\n" + strings.Repeat("x", 300) + ",1\n" + strings.Repeat("y", 300) + ",2\n",
	"sales":               rowsCSV("product,city,year,size,profit", 3000, salesRow),
	"int then float past window": rowsCSV("k,size", 1500, func(i int) string {
		if i == 1200 {
			return "k,2.5"
		}
		return fmt.Sprintf("k,%d", i)
	}),
	"int then float inside window": rowsCSV("k,size", 1500, func(i int) string {
		if i == 999 {
			return "k,2.5"
		}
		return fmt.Sprintf("k,%d", i)
	}),
	"new strings past window": rowsCSV("k,size", 1500, func(i int) string {
		if i >= 1000 {
			return fmt.Sprintf("k%d,%d", i, i) // new dictionary entries in later blocks
		}
		return fmt.Sprintf("k%d,%d", i%3, i)
	}),
	"short row past window": rowsCSV("k,size", 1500, func(i int) string {
		if i == 1400 {
			return "k"
		}
		return fmt.Sprintf("k,%d", i)
	}),
	"first quote past window": rowsCSV("product,city,year,size,profit", 3000, func(i int) string {
		if i == 2500 {
			return "\"p,\n2500\",c1,2001,5,1.5"
		}
		return salesRow(i)
	}),
	"bad quote past window": rowsCSV("product,city,year,size,profit", 3000, func(i int) string {
		if i == 2500 {
			return "p\"x,c1,2001,5,1.5"
		}
		return salesRow(i)
	}),
}

// TestReadCSVMatchesReference holds ReadCSV to the reference over the dialect
// table, with 64-byte blocks (so records straddle every block edge) as well
// as production-sized ones, on one, two and eight workers.
func TestReadCSVMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, blockSize := range []int{1, 64, 1000, csvBlockSize} {
			t.Run(fmt.Sprintf("procs=%d/block=%d", procs, blockSize), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for name, data := range csvDialects {
					if err := checkAgainstReference([]byte(data), blockSize); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			})
		}
	}
}

// TestReadCSVErrorsNameRowAndColumn: a cell that does not parse and a record
// of the wrong arity both report the 1-based data row and the column, word
// for word the same from the block decode and from the sequential one (the
// same input with its header quoted), and with several bad rows the lowest
// wins on every run.
func TestReadCSVErrorsNameRowAndColumn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	body := func(bad map[int]string) string {
		return rowsCSV("", 3000, func(i int) string {
			if row, ok := bad[i]; ok {
				return row
			}
			return fmt.Sprintf("k%d,%d,%d", i%7, i, i%13)
		})
	}
	cases := []struct {
		name string
		bad  map[int]string
		want string
	}{
		{"cell", map[int]string{1000: "k,2.5,1"},
			`dataset: CSV row 1001: column "size": strconv.ParseInt: parsing "2.5": invalid syntax`},
		{"lowest of several", map[int]string{2900: "k,x,1", 1500: "k,1.5,1", 2200: "k"},
			`dataset: CSV row 1501: column "size": strconv.ParseInt: parsing "1.5": invalid syntax`},
		{"short", map[int]string{1200: "k,5"},
			`dataset: CSV row 1201: 2 cells, want 3: none for column "weight"`},
		{"long", map[int]string{2999: "k,5,6,7"},
			`dataset: CSV row 3000: 4 cells, want 3: cell 4 is past the last column "weight"`},
		{"arity before cell", map[int]string{1100: "k,x"},
			`dataset: CSV row 1101: 2 cells, want 3: none for column "weight"`},
	}
	for _, tc := range cases {
		rows := body(tc.bad)
		for _, header := range []string{"key,size,weight", `"key",size,weight`} {
			for run := 0; run < 5; run++ {
				_, err := readCSV("t", strings.NewReader(header+rows), 64)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("%s (header %s): error %v, want %s", tc.name, header, err, tc.want)
				}
			}
		}
	}
}

// FuzzReadCSV feeds arbitrary bytes to the decoder at a small block size and
// requires the reference's outcome: the same error-or-not and, on success,
// the same table.
func FuzzReadCSV(f *testing.F) {
	for _, data := range csvDialects {
		if len(data) < 4096 {
			f.Add([]byte(data), uint8(16))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, block uint8) {
		if err := checkAgainstReference(data, int(block)+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParseCellsMatchStrconv pins the two short cuts to the functions they
// stand in for, on the cells around their limits.
func TestParseCellsMatchStrconv(t *testing.T) {
	cells := []string{"", "+", "-", ".", "+.", "0", "-0", "+0", "00", "1.", ".1", "-.5", "1..2", "1.2.3",
		"9007199254740991", "9007199254740992", "9007199254740993", "0.9007199254740993",
		"123456789012345678", "1234567890123456789", "12345678901234567890", "-9223372036854775808",
		"0.0000000000000000000001", "0.00000000000000000000001", "1e3", "1E3", "0x1p3", "inf", "nan", "1_0",
		"68.93633004691726", "199.3771418718698", "4.35", "0.1", "0.3", "2.675", "１",
		// Eisel–Lemire: mantissas from 2^53 to 19 digits, its halfway ties
		// (2^54+2 lies between 2^54 and 2^54+4) and the exponents it reaches.
		"9007199254740994", "9007199254740995", "18014398509481986", "18014398509481990", "-18014398509481986",
		"9223372036854775808", "9999999999999999999", "1000000000000000000", "0.1000000000000000055511151231257827",
		"0.30000000000000004", "1.7976931348623157", "0.0000000000000000001", "9.999999999999999999",
		"+.9007199254740993", "-0.000009007199254740993", "99999999999999999.99", "72.95634128475821"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			cells = append(cells, strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(30)-15)), 'g', -1, 64))
		case 1:
			cells = append(cells, strconv.FormatFloat(float64(rng.Int63n(1<<54))/math.Pow(10, float64(rng.Intn(25))), 'f', -1, 64))
		default:
			cells = append(cells, strconv.FormatInt(rng.Int63()>>uint(rng.Intn(64))*int64(1-2*rng.Intn(2)), 10))
		}
	}
	// The Eisel–Lemire path's cells, from a second source so the cells above
	// stay as they were.
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			// The benchmark's cells: %.17g of a value in the hundreds.
			cells = append(cells, strconv.FormatFloat(rng.Float64()*300, 'g', 17, 64))
			continue
		}
		// A halfway tie between two float64s of 2^e, e in [53, 63), as an
		// integer of at most 19 digits, with its point put anywhere.
		e := 53 + rng.Intn(10)
		tie := uint64(1)<<e + uint64(rng.Int63n(1<<52))<<(e-52) | 1<<(e-53)
		cell := strconv.FormatUint(tie, 10)
		if at := rng.Intn(len(cell) + 1); at < len(cell) {
			cell = cell[:at] + "." + cell[at:]
		}
		cells = append(cells, cell)
	}
	for _, cell := range cells {
		gi, gerr := parseInt([]byte(cell))
		wi, werr := strconv.ParseInt(cell, 10, 64)
		if gi != wi || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("parseInt(%q) = %d, %v; strconv says %d, %v", cell, gi, gerr, wi, werr)
		}
		gf, gerr := parseFloat([]byte(cell))
		wf, werr := strconv.ParseFloat(cell, 64)
		if math.Float64bits(gf) != math.Float64bits(wf) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("parseFloat(%q) = %v, %v; strconv says %v, %v", cell, gf, gerr, wf, werr)
		}
	}
}

// TestReadCSVAllocatesTheTableTwice guards the load's memory: chunks plus the
// stitched table plus one block per worker, not the file and a string per
// cell. Two workers, so the blocks are a known quantity.
func TestReadCSVAllocatesTheTableTwice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rows = 200_000
	rng := rand.New(rand.NewSource(7))
	// The benchmark's sales schema: four categorical, four integer and two
	// float columns.
	src := NewTable("t", []Field{{"product", KindString}, {"category", KindString}, {"city", KindString},
		{"country", KindString}, {"year", KindInt}, {"month", KindInt}, {"size", KindInt}, {"weight", KindInt},
		{"profit", KindFloat}, {"revenue", KindFloat}})
	for i := 0; i < rows; i++ {
		p, c := rng.Intn(500), rng.Intn(50)
		src.AppendRow(SV(fmt.Sprintf("product%04d", p)), SV(fmt.Sprintf("category%d", p%8)),
			SV(fmt.Sprintf("city%03d", c)), SV(fmt.Sprintf("country%d", c%5)),
			IV(int64(2000+rng.Intn(20))), IV(int64(1+rng.Intn(12))), IV(int64(rng.Intn(100))), IV(int64(rng.Intn(200))),
			FV(rng.Float64()*100), FV(rng.Float64()*300))
	}
	var buf bytes.Buffer
	if err := WriteCSV(src, &buf); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, err := ReadCSV("t", bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTable(got, src); err != nil {
		t.Fatal(err)
	}
	for _, c := range got.cols {
		if c.capRows() != c.Len() {
			t.Errorf("column %q is not exact-size", c.Field.Name)
		}
	}
	tableBytes := uint64(got.SizeBytes())
	if perRow := float64(tableBytes) / rows; perRow > 28 {
		t.Errorf("the packed table holds %.1f bytes a row, want at most 28 (80 unpacked)", perRow)
	}
	// Packed chunks and the packed table, a third table's worth for the
	// chunks' dictionaries and slack, and the block buffers: one per worker and
	// one being read, each allocated again whenever a recycled one is a few
	// bytes short of its carry — three to six times in this input, as the
	// scheduler has it.
	alloc := m1.TotalAlloc - m0.TotalAlloc
	limit := 3*tableBytes + 8*csvBlockSize
	t.Logf("%d-byte CSV, %d-byte table, %d bytes allocated (limit %d)", buf.Len(), tableBytes, alloc, limit)
	if alloc >= limit {
		t.Errorf("loading allocated %d bytes, want under %d: three times the table's %d plus eight blocks", alloc, limit, tableBytes)
	}
}

// FuzzParseFloat: arbitrary bytes through parseFloat give strconv.ParseFloat's
// outcome, the same error text or the same bits.
func FuzzParseFloat(f *testing.F) {
	for _, cell := range []string{"68.93633004691726", "199.3771418718698", "248.13639960990096",
		"9007199254740991", "9007199254740992", "9007199254740993", "1234567890123456789", "12345678901234567890",
		"9999999999999999999", "10000000000000000000", "18014398509481986", "0.18014398509481986",
		"-0", "+.5", "5.", ".", "1e3", "0x1p3", "inf", ""} {
		f.Add([]byte(cell))
	}
	f.Fuzz(func(t *testing.T, cell []byte) {
		g, gerr := parseFloat(cell)
		w, werr := strconv.ParseFloat(string(cell), 64)
		if math.Float64bits(g) != math.Float64bits(w) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv says %v, %v", cell, g, gerr, w, werr)
		}
	})
}

// TestEiselLemirePowers derives the 128-bit powers of ten from their exact
// values: each is 10^e scaled by a power of two into [2^127, 2^128), rounded
// down.
func TestEiselLemirePowers(t *testing.T) {
	two127 := new(big.Int).Lsh(big.NewInt(1), 127)
	for i, got := range pow10Wide {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(19-i)), nil)
		v := new(big.Int)
		for k := uint(127); v.Quo(new(big.Int).Lsh(big.NewInt(1), k), den).Cmp(two127) < 0; k++ {
		}
		lo := new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		if hi := new(big.Int).Rsh(v, 64).Uint64(); got != [2]uint64{lo, hi} {
			t.Errorf("1e-%d: %#x, want %#x", 19-i, got, [2]uint64{lo, hi})
		}
	}
}

// TestDigitRuns pins the eight-at-a-time digit reader to a byte loop, over
// runs of every length at every offset, stopped by every kind of byte.
func TestDigitRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(40))
		for k := range b {
			if rng.Intn(8) == 0 {
				b[k] = byte(rng.Intn(256))
			} else {
				b[k] = byte('0' + rng.Intn(10))
			}
		}
		start := rng.Intn(len(b) + 1)
		end, mant, n := digits(b, start, 0, 0)
		var want uint64
		k := start
		for ; k < len(b) && b[k] >= '0' && b[k] <= '9'; k++ {
			want = want*10 + uint64(b[k]-'0')
		}
		if end != k || n != k-start || mant != want {
			t.Fatalf("digits(%q, %d) = %d, %d, %d; want %d, %d, %d", b, start, end, mant, n, k, want, k-start)
		}
	}
}

// TestDecodeMatchesReferenceOnLongCells holds the block decode to the
// reference on the cells its short cuts treat specially: %.17g floats (the
// Eisel–Lemire path), strings either side of 8 and 16 bytes (the short-string
// table's two words), more distinct strings than the table takes, values that
// share their first word and length but not their second (a slot of the
// previous chunk must not lend its string to a different value), and each of
// them last on a CRLF line.
func TestDecodeMatchesReferenceOnLongCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := rowsCSV("s,f,k", 5000, func(i int) string {
		s := strings.Repeat("abcdefghij", 2)[:i%19]
		if i >= 1500 {
			s = fmt.Sprintf("w%d", i) // 3500 new strings: past a full table
		}
		k := fmt.Sprintf("product%04d", rng.Intn(500))
		row := fmt.Sprintf("%s,%s,%s", s, strconv.FormatFloat(rng.Float64()*300, 'g', 17, 64), k)
		if i%7 == 0 {
			row += "\r"
		}
		return row
	})
	for _, procs := range []int{1, 2} {
		for _, blockSize := range []int{1, 64, 1000, csvBlockSize} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if err := checkAgainstReference([]byte(data), blockSize); err != nil {
					t.Errorf("procs=%d block=%d: %v", procs, blockSize, err)
				}
			}()
		}
	}
}

// TestShortStringsAcrossTheGenerationWrap: one decode worker's short-string
// table stays right over chunks whose generation wraps. The first chunk's
// entries carry the generation the wrap restarts at, so the table must be
// cleared then. Each chunk shares some values with the one before it, some
// 16 bytes long with a common first word.
func TestShortStringsAcrossTheGenerationWrap(t *testing.T) {
	fields := []Field{{Name: "s", Kind: KindString}}
	d := &csvDecoder{cols: make([]decodedColumn, 1)}
	for k := 0; k < 6; k++ {
		if k == 1 {
			d.cols[0].short.gen = 1<<27 - 3 // two chunks short of the wrap
		}
		var block strings.Builder
		var want []string
		for i := 0; i < 60; i++ {
			v := fmt.Sprintf("v%d", (i*7+k*5)%25)
			if i%3 == 0 {
				v = fmt.Sprintf("abcdefgh%08d", (i+k)%9)
			}
			want = append(want, v)
			block.WriteString(v + "\n")
		}
		ch := &csvChunk{t: NewTable("", fields)}
		if ch.decode(d, []byte(block.String()), len(want)); ch.err != nil {
			t.Fatalf("chunk %d: %v", k, ch.err)
		}
		c := ch.t.Columns()[0]
		if ch.t.NumRows() != len(want) {
			t.Fatalf("chunk %d: %d rows, want %d", k, ch.t.NumRows(), len(want))
		}
		for i, w := range want {
			if got := c.Value(i).String(); got != w {
				t.Fatalf("chunk %d (generation %d) row %d: %q, want %q", k, d.cols[0].short.gen, i, got, w)
			}
		}
	}
	if g := d.cols[0].short.gen; g >= 1<<27-3 {
		t.Fatalf("generation %d: the table never wrapped", g)
	}
}

// TestChunkSegmentsMatchTheStitchedTable: every row range Segment returns
// holds the stitched table's rows at its layouts, over its dictionaries —
// across chunk edges, a code-width crossing and an integer column going raw
// between chunks.
func TestChunkSegmentsMatchTheStitchedTable(t *testing.T) {
	data := []byte(rowsCSV("s,k,f,r", 6000, func(i int) string {
		return fmt.Sprintf("s%d,%d,%v,%d", i*7%300, i%9, float64(i)/3, i)
	}))
	want, err := readCSV("t", bytes.NewReader(data), csvBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if want.cols[0].codes.Width() != 2 || !want.cols[3].rawInts || want.cols[1].rawInts {
		t.Fatalf("the input does not cross a width and go raw")
	}
	for _, blockSize := range []int{64, 1000, 20000} {
		ch, err := decodeCSV("t", bytes.NewReader(data), blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(ch.parts) < 2 {
			t.Fatalf("block %d: %d chunk", blockSize, len(ch.parts))
		}
		for _, size := range []int{1, 7, 4096, 6000} {
			var seg *Table
			for lo := 0; lo < ch.NumRows(); lo += size {
				hi := min(lo+size, ch.NumRows())
				seg = ch.Segment(lo, hi, seg)
				rows := make([]int, hi-lo)
				for i := range rows {
					rows[i] = lo + i
				}
				if err := sameTable(seg, want.Gather(rows)); err != nil {
					t.Fatalf("block %d, rows [%d, %d): %v", blockSize, lo, hi, err)
				}
			}
		}
		if err := sameTable(ch.Table(), want); err != nil {
			t.Fatalf("block %d stitched: %v", blockSize, err)
		}
	}
}
