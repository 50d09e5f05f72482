package zpack

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// salesCSV renders rows rows of the benchmark's sales schema — four
// categorical, four integer and two float columns, the floats as %.17g — as
// CSV.
func salesCSV(t *testing.T, rows int) []byte {
	rng := rand.New(rand.NewSource(7))
	src := dataset.NewTable("t", []dataset.Field{{Name: "product", Kind: dataset.KindString}, {Name: "category", Kind: dataset.KindString},
		{Name: "city", Kind: dataset.KindString}, {Name: "country", Kind: dataset.KindString}, {Name: "year", Kind: dataset.KindInt},
		{Name: "month", Kind: dataset.KindInt}, {Name: "size", Kind: dataset.KindInt}, {Name: "weight", Kind: dataset.KindInt},
		{Name: "profit", Kind: dataset.KindFloat}, {Name: "revenue", Kind: dataset.KindFloat}})
	for i := 0; i < rows; i++ {
		p, c := rng.Intn(500), rng.Intn(50)
		src.AppendRow(dataset.SV(fmt.Sprintf("product%04d", p)), dataset.SV(fmt.Sprintf("category%d", p%8)),
			dataset.SV(fmt.Sprintf("city%03d", c)), dataset.SV(fmt.Sprintf("country%d", c%5)),
			dataset.IV(int64(2000+rng.Intn(20))), dataset.IV(int64(1+rng.Intn(12))), dataset.IV(int64(rng.Intn(100))),
			dataset.IV(int64(rng.Intn(200))), dataset.FV(rng.Float64()*100), dataset.FV(rng.Float64()*300))
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(src, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildFromCSVHoldsTheTableOnce guards the ingest path's memory: a Build
// from the decoded chunks allocates the chunks, their merged dictionaries and
// a block buffer per worker, never a stitched table beside them — and writes
// the bytes a Build of the stitched table writes. Two workers, so the CSV
// block buffers are a known quantity: one each and the one being read.
func TestBuildFromCSVHoldsTheTableOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rows = 200_000
	data := salesCSV(t, rows)
	dir := t.TempDir()
	stitched, err := dataset.ReadCSV("t", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tableBytes := uint64(stitched.SizeBytes())
	if err := Build(filepath.Join(dir, "stitched.zpack"), stitched); err != nil {
		t.Fatal(err)
	}
	stitched = nil
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ch, err := dataset.DecodeCSV("t", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := Build(filepath.Join(dir, "chunks.zpack"), ch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const block = 1 << 20 // the CSV decode's block size
	buffers := uint64(3 * (block + block/16))
	alloc := m1.TotalAlloc - m0.TotalAlloc
	limit := tableBytes*13/10 + buffers
	t.Logf("%d-byte CSV, %d-byte table, %d bytes allocated besides %d of block buffers: %.2f tables (limit 1.3)",
		len(data), tableBytes, alloc-min(alloc, buffers), buffers, float64(alloc-min(alloc, buffers))/float64(tableBytes))
	if alloc >= limit {
		t.Errorf("decode and build allocated %d bytes, want under %d: 1.3 times the table's %d plus the block buffers", alloc, limit, tableBytes)
	}
	if got, want := fileSum(t, filepath.Join(dir, "chunks.zpack")), fileSum(t, filepath.Join(dir, "stitched.zpack")); got != want {
		t.Errorf("the build from chunks is %s, from the stitched table %s", got, want)
	}
}
