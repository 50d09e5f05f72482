package zexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zpack"
	"repro/internal/zql"
)

func mustParseZQL(t *testing.T, src string) *zql.Query {
	t.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// corruptFloatBlock flips one byte of the block that holds tbl's column col
// in the one-segment zpack file at path.
func corruptFloatBlock(t *testing.T, path string, tbl *dataset.Table, col string) {
	t.Helper()
	corruptFloatRows(t, path, tbl, col, 0, tbl.NumRows())
}

// corruptFloatRows flips one byte of the block that holds rows [lo, hi) of
// tbl's column col — one segment's — in the zpack file at path: a float
// column's block is its values, little-endian, byte for byte.
func corruptFloatRows(t *testing.T, path string, tbl *dataset.Table, col string, lo, hi int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var block []byte
	for _, v := range tbl.Column(col).Floats()[lo:hi] {
		block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
	}
	at := bytes.Index(raw, block)
	if at < 0 || bytes.Count(raw, block) != 1 {
		t.Fatalf("the %s block is not where the format says", col)
	}
	raw[at+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// enumerateWeight is a ZQL query whose axis `*` expansion must read the
// weight column (float values have no footer dictionary); its scans read
// year, sales and weight.
const enumerateWeight = `
NAME | X      | Y       | Z
*f1  | 'year' | 'sales' | v1 <- 'weight'.*`

// TestZpackCorruptEnumerationErrors pins the loud-failure contract for
// file-backed datasets: when a block the query reads is corrupt — here the
// weight block its enumeration reads — the query fails with a zpack error
// instead of silently enumerating over missing values.
func TestZpackCorruptEnumerationErrors(t *testing.T) {
	tbl := fixtureSales()
	path := buildZpack(t, tbl)
	corruptFloatBlock(t, path, tbl, "weight")
	r, err := zpack.Open(path) // footer is intact; only data is corrupt
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := engine.NewColumnStoreFromSource(r)
	_, err = Run(mustParseZQL(t, enumerateWeight), db, Options{Table: "sales", Seed: 1})
	if err == nil {
		t.Fatal("query over corrupt data succeeded — enumeration silently incomplete")
	}
	if !strings.Contains(err.Error(), "zpack") {
		t.Errorf("error %q does not surface the zpack corruption", err)
	}
}

// TestZpackCorruptUnreadBlockLeavesQueriesCorrect is its twin: a corrupt
// block in a column the query does not read is never read, so the query
// answers exactly as over the intact table — while Verify, which reads every
// block (as `zpack verify` does), still fails.
func TestZpackCorruptUnreadBlockLeavesQueriesCorrect(t *testing.T) {
	tbl := fixtureSales()
	path := buildZpack(t, tbl)
	corruptFloatBlock(t, path, tbl, "size")
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := mustParseZQL(t, enumerateWeight)
	got, err := Run(q, engine.NewColumnStoreFromSource(r), Options{Table: "sales", Seed: 1})
	if err != nil {
		t.Fatalf("a query that never reads the corrupt size block failed: %v", err)
	}
	want, err := Run(q, engine.NewColumnStore(tbl), Options{Table: "sales", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := encodeResult(got), encodeResult(want); g != w {
		t.Fatalf("answer over the zpack file differs:\n got %s\nwant %s", clip(g), clip(w))
	}
	if err := r.Verify(); err == nil || !strings.Contains(err.Error(), `column "size": block checksum mismatch`) {
		t.Fatalf("verify: %v; want the size block's checksum mismatch", err)
	}
}

// TestZpackCorruptBlockFailsEveryRead: a scan reads every block it needs
// from the file and checks it on every read, so a flipped byte in one block —
// the revenue of a year-clustered file's middle segment — fails every query
// that reads the block, on each attempt, naming the segment and the column,
// while a query whose year filter the zone maps route around the segment
// answers as the intact table does, before the failures and after them.
func TestZpackCorruptBlockFailsEveryRead(t *testing.T) {
	const S = engine.SegmentSize
	src := workload.Sales(workload.SalesConfig{Rows: 3 * S, Products: 20, Years: 12, Cities: 5, Seed: 4})
	order := make([]int, src.NumRows())
	for i := range order {
		order[i] = i
	}
	year := src.Column("year")
	sort.SliceStable(order, func(a, b int) bool { return year.Int(order[a]) < year.Int(order[b]) })
	tbl := src.Gather(order)
	tbl.Name = "sales"
	path := buildZpack(t, tbl)
	corruptFloatRows(t, path, tbl, "revenue", S, 2*S)
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db, mem := engine.NewColumnStoreFromSource(r), engine.NewColumnStore(tbl)
	routed := mustParseZQL(t, fmt.Sprintf(`
NAME | X       | Y         | Z                 | CONSTRAINTS
*f1  | 'month' | 'revenue' | v1 <- 'product'.* | year < %d`, tbl.Column("year").Int(S)))
	want, err := Run(routed, mem, Options{Table: "sales", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := mustParseZQL(t, "NAME | X | Y\n*f1 | 'year' | 'revenue'")
	for attempt := 0; attempt < 3; attempt++ {
		got, err := Run(routed, db, Options{Table: "sales", Seed: 1})
		if err != nil {
			t.Fatalf("attempt %d: a query the zone maps route around the corrupt segment failed: %v", attempt, err)
		}
		if g, w := encodeResult(got), encodeResult(want); g != w {
			t.Fatalf("attempt %d: routed answer differs:\n got %s\nwant %s", attempt, clip(g), clip(w))
		}
		_, err = Run(full, db, Options{Table: "sales", Seed: 1})
		if err == nil || !strings.Contains(err.Error(), `zpack: segment 1 column "revenue": block checksum mismatch`) {
			t.Fatalf("attempt %d: a scan of the corrupt revenue block: %v; want its checksum mismatch, naming segment 1", attempt, err)
		}
	}
	if got := db.Stats().SegmentsSkipped; got == 0 {
		t.Fatal("the routed query skipped no segment")
	}
	if err := r.Verify(); err == nil || !strings.Contains(err.Error(), `segment 1 column "revenue"`) {
		t.Fatalf("verify: %v; want the revenue block of segment 1", err)
	}
}

// rewriteFooter replaces the footer of the zpack file at path through edit and
// points a fresh trailer (docs/FORMAT.md: footer offset, length, CRC-32C,
// magic) at it, so every checksum holds.
func rewriteFooter(t *testing.T, path string, edit func(footer []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := raw[len(raw)-24:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	footer := edit(bytes.Clone(raw[off : off+n]))
	out := append(raw[:off:off], footer...)
	out = binary.LittleEndian.AppendUint64(out, off)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(footer)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(footer, crc32.MakeTable(crc32.Castagnoli)))
	out = append(out, tr[20:24]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// int64s is the little-endian i64 run a footer lists an int dictionary as.
func int64s(vals []int64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestZpackValueMissingFromFooterDictionary: a footer whose int dictionary
// contradicts the blocks — every checksum valid — must fail the query with
// the corruption named, not decode to some other value. A v1 file's blocks
// hold the values, each looked up in the footer's sorted dictionary: the
// committed v1 fixture's footer is rewritten to list its last year plus 1000,
// and the load names the value it misses. A v2 file's blocks hold codes into
// the dictionary: cut by its last entry, the dictionary no longer reaches a
// code the blocks hold, and the load says the code is out of range.
func TestZpackValueMissingFromFooterDictionary(t *testing.T) {
	run := func(path, table, y, z string) error {
		r, err := zpack.Open(path) // every checksum holds; the data contradicts the footer
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		src := "\nNAME | X      | Y | Z\n*f1  | 'year' | '" + y + "' | v1 <- '" + z + "'.*"
		_, err = Run(mustParseZQL(t, src), engine.NewColumnStoreFromSource(r), Options{Table: table, Seed: 1})
		return err
	}

	v1, err := os.ReadFile("../zpack/testdata/fixture_v1.zpack")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.zpack")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	years := []int64{2015, 2016, 2017, 2018, 2019, 2020}
	rewriteFooter(t, path, func(footer []byte) []byte {
		dict := int64s(years)
		at := bytes.Index(footer, dict)
		if at < 0 || bytes.Count(footer, dict) != 1 {
			t.Fatal("v1 fixture: the year dictionary is not where the format says")
		}
		binary.LittleEndian.PutUint64(footer[at+len(dict)-8:], uint64(years[5]+1000))
		return footer
	})
	if err := run(path, "fixture", "revenue", "region"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("value %d missing from footer dictionary", years[5])) {
		t.Fatalf("v1: query over a file whose year block holds a value its footer lacks: %v", err)
	}

	tbl := fixtureSales()
	vals := tbl.Column("year").IntDict()
	path = buildZpack(t, tbl)
	rewriteFooter(t, path, func(footer []byte) []byte {
		dict := binary.LittleEndian.AppendUint32(nil, uint32(len(vals)))
		dict = append(dict, int64s(vals)...)
		at := bytes.Index(footer, dict)
		if at < 0 || bytes.Count(footer, dict) != 1 {
			t.Fatal("v2: the year dictionary is not where the format says")
		}
		cut := binary.LittleEndian.AppendUint32(nil, uint32(len(vals)-1))
		cut = append(cut, int64s(vals[:len(vals)-1])...)
		return append(footer[:at:at], append(cut, footer[at+len(dict):]...)...)
	})
	if err := run(path, "sales", "sales", "product"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dictionary code out of range [0,%d)", len(vals)-1)) {
		t.Fatalf("v2: query over a file whose year block holds a code its footer's dictionary lacks: %v", err)
	}
}

// TestStarExpansionOverIntColumnReadsTheDictionary: 'year'.* on a CSV-loaded
// table enumerates the column's value dictionary — a sort of 20 values — where
// it used to hash every row on every request.
func TestStarExpansionOverIntColumnReadsTheDictionary(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(workload.Sales(workload.SalesConfig{Rows: 200_000, Products: 50, Years: 20, Cities: 10, Seed: 3}), &buf); err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.ReadCSV("sales", &buf)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewRowStore(tbl)
	q := mustParseZQL(t, `
NAME | X       | Y         | Z
*f1  | 'month' | 'revenue' | v1 <- 'year'.*`)
	ex := &executor{q: q, db: db, ctx: context.Background(), table: tbl}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elems, err := ex.starElements(elemZ, "year")
	runtime.ReadMemStats(&after)
	if err != nil || len(elems) != 20 || elems[0].val != "2006" {
		t.Fatalf("'year'.* expands to %d elements (first %+v), err %v; want the 20 years from 2006", len(elems), elems[:min(1, len(elems))], err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("resolving 'year'.* over %d rows allocated %d bytes, want < 64 kB", tbl.NumRows(), alloc)
	}
	res, err := Run(q, db, Options{Table: "sales", Seed: 1})
	if err != nil || len(res.Outputs) != 1 || len(res.Outputs[0].Vis) != 20 {
		t.Fatalf("the query itself: %v", err)
	}
}
