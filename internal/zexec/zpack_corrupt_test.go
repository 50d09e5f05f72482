package zexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
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

// TestZpackCorruptEnumerationErrors pins the loud-failure contract for lazy
// datasets: when a data block is corrupt, a ZQL query whose axis `*`
// expansion must materialize the column (float values have no footer
// dictionary) fails with a zpack error instead of silently enumerating over
// missing values.
func TestZpackCorruptEnumerationErrors(t *testing.T) {
	tbl := fixtureSales()
	path := buildZpack(t, tbl)
	// Flip one byte in the first data block (directly after the 16-byte
	// header): segment 0's first column, so any load of segment 0 fails.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[16+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := zpack.Open(path) // footer is intact; only data is corrupt
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := engine.NewColumnStoreFromSource(r)
	src := `
NAME | X      | Y       | Z
*f1  | 'year' | 'sales' | v1 <- 'weight'.*`
	_, err = Run(mustParseZQL(t, src), db, Options{Table: "sales", Seed: 1})
	if err == nil {
		t.Fatal("query over corrupt data succeeded — enumeration silently incomplete")
	}
	if !strings.Contains(err.Error(), "zpack") {
		t.Errorf("error %q does not surface the zpack corruption", err)
	}
}

// TestZpackValueMissingFromFooterDictionary: a dictionary-coded integer
// column's cells are decoded into codes of the footer's value dictionary, so
// a value the dictionary lacks — here the footer is rewritten (with a valid
// checksum) to list 3019 where the blocks hold 2019 — must fail the load with
// the corruption named, not decode to some other value's code.
func TestZpackValueMissingFromFooterDictionary(t *testing.T) {
	tbl := fixtureSales()
	years := tbl.Column("year").DistinctSorted()
	last := years[len(years)-1].I
	path := buildZpack(t, tbl)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// docs/FORMAT.md: the trailer's last 24 bytes are footer offset, footer
	// length, footer CRC-32C, magic; the footer lists the dictionary's values
	// sorted, as little-endian i64s.
	tr := raw[len(raw)-24:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	footer := raw[off : off+n]
	dict := make([]byte, 0, 8*len(years))
	for _, y := range years {
		dict = binary.LittleEndian.AppendUint64(dict, uint64(y.I))
	}
	at := bytes.Index(footer, dict)
	if at < 0 || bytes.Count(footer, dict) != 1 {
		t.Fatal("fixture: the year dictionary is not where the format says")
	}
	binary.LittleEndian.PutUint64(footer[at+len(dict)-8:], uint64(last+1000))
	binary.LittleEndian.PutUint32(tr[16:20], crc32.Checksum(footer, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := zpack.Open(path) // every checksum holds; the data contradicts the footer
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := engine.NewColumnStoreFromSource(r)
	src := `
NAME | X      | Y       | Z
*f1  | 'year' | 'sales' | v1 <- 'product'.*`
	_, err = Run(mustParseZQL(t, src), db, Options{Table: "sales", Seed: 1})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("value %d missing from footer dictionary", last)) {
		t.Fatalf("query over a file whose year block holds a value its footer lacks: %v", err)
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
