package zpack

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
)

// FuzzZpackOpen feeds arbitrary files to the reader. Open, a Load of the
// column subset cols (a bit per column) of segment seg, Verify and LoadAll
// must each end in an error or success: never a panic, and never an
// allocation sized by a length the file cannot back — the bytes allocated
// stay within a fixed multiple of the file's size. Every input runs twice, as
// given and with its trailer's footer checksum recomputed, so that mutations
// inside the footer reach the decoder instead of stopping at the CRC.
//
//	go test ./internal/zpack -run '^$' -fuzz FuzzZpackOpen -fuzztime 60s
func FuzzZpackOpen(f *testing.F) {
	const all = ^uint64(0)
	v1, v2 := readFixture(f, "fixture_v1.zpack"), readFixture(f, "fixture_v2.zpack")
	f.Add(v1, uint16(0), uint64(0b101))
	f.Add([]byte{}, uint16(0), all)
	f.Add(v1[:len(v1)-1], uint16(0), all) // torn trailer
	flipped := bytes.Clone(v1)
	flipped[headerSize+3] ^= 0xff // segment 0's first block: a checksum error
	f.Add(flipped, uint16(0), all&^1)
	f.Add(missingDictValue(f, v1), uint16(0), all)
	f.Add(v2, uint16(1), all)
	f.Add(codeOutOfRange(f, v2), uint16(0), uint64(1))
	f.Add(overwideBlock(f, v2), uint16(0), all)

	path := filepath.Join(f.TempDir(), "fuzz.zpack")
	f.Fuzz(func(t *testing.T, raw []byte, seg uint16, cols uint64) {
		for _, b := range [][]byte{raw, resealFooter(raw)} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			openVerifyLoad(path, int(seg), cols)
			runtime.ReadMemStats(&after)
			if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<20); alloc > budget {
				t.Fatalf("a %d-byte file allocated %d bytes (budget %d)", len(b), alloc, budget)
			}
		}
	})
}

// openVerifyLoad runs the reader's whole surface over one file, continuing
// past errors so every stage sees every input that opens: a Load of the
// columns whose bits are set in cols in segment seg (one past the last
// segment is out of range), then Verify and LoadAll. Any error is an
// acceptable outcome; only a panic or the allocation bound fails an input.
func openVerifyLoad(path string, seg int, cols uint64) {
	r, err := Open(path)
	if err != nil {
		return
	}
	defer r.Close()
	_, _ = r.Load(seg%(r.NumSegments()+1), columnMask(len(r.foot.fields), cols), nil)
	_ = r.Verify()
	_ = r.LoadAll()
}

// columnMask returns the columns of an n-column table whose bits are set in
// mask.
func columnMask(n int, mask uint64) engine.ColumnSet {
	cols := engine.NewColumnSet(n)
	for j := 0; j < min(n, 64); j++ {
		if mask&(1<<j) != 0 {
			cols.Add(j)
		}
	}
	return cols
}

// resealFooter returns raw with its trailer's footer checksum recomputed, or
// raw itself when the trailer does not point inside the file.
func resealFooter(raw []byte) []byte {
	if len(raw) < headerSize+trailerSize {
		return raw
	}
	tr := raw[len(raw)-trailerSize:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	if off > uint64(len(raw)) || n > uint64(len(raw))-off {
		return raw
	}
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(out[len(out)-trailerSize+16:], crc32.Checksum(out[off:off+n], castagnoli))
	return out
}

func readFixture(tb testing.TB, name string) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// footerOf returns where a file's footer lies, and the footer decoded.
func footerOf(tb testing.TB, raw []byte, version int) (off, n uint64, foot *footer) {
	tr := raw[len(raw)-trailerSize:]
	off, n = binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	foot, err := decodeFooter(raw[off:off+n], version)
	if err != nil {
		tb.Fatal(err)
	}
	return off, n, foot
}

// missingDictValue rewrites the v1 fixture's year dictionary, in place, so
// its largest value is one the blocks never hold, with every checksum valid:
// the load must name the value missing from the footer dictionary.
func missingDictValue(tb testing.TB, v1 []byte) []byte {
	off, n, foot := footerOf(tb, v1, 1)
	var dict []byte
	for _, y := range foot.intVals["year"] {
		dict = binary.LittleEndian.AppendUint64(dict, uint64(y))
	}
	out := bytes.Clone(v1)
	at := bytes.Index(out[off:off+n], dict)
	if at < 0 {
		tb.Fatal("v1 fixture: year dictionary not found in the footer")
	}
	last := out[off+uint64(at+len(dict)-8):]
	binary.LittleEndian.PutUint64(last, binary.LittleEndian.Uint64(last)+1000)
	return resealFooter(out)
}

// relayout lets edit change a one-segment v2 file's footer and blocks, then
// lays the file out again with every offset and checksum recomputed.
func relayout(tb testing.TB, v2 []byte, edit func(foot *footer, blocks [][]byte)) []byte {
	_, _, foot := footerOf(tb, v2, 2)
	seg := foot.segs[0].blocks
	blocks := make([][]byte, len(seg))
	for j, ref := range seg {
		blocks[j] = bytes.Clone(v2[ref.off : ref.off+ref.len])
	}
	edit(foot, blocks)
	out := bytes.Clone(v2[:headerSize])
	for j, b := range blocks {
		seg[j].off, seg[j].len, seg[j].crc = int64(len(out)), int64(len(b)), crc32.Checksum(b, castagnoli)
		out = append(out, b...)
	}
	footOff, payload := len(out), foot.encode()
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(footOff))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, trailerMagic[:]...)
}

// codeOutOfRange puts a region code one past the dictionary into the v2
// fixture's first block: it opens and verifies, and the load must refuse it.
func codeOutOfRange(tb testing.TB, v2 []byte) []byte {
	return relayout(tb, v2, func(foot *footer, blocks [][]byte) {
		blocks[0][7] = byte(len(foot.dicts["region"]))
	})
}

// overwideBlock stores the v2 fixture's region codes as two bytes each, wider
// than a four-entry dictionary's codes are packed at: Open must refuse it.
func overwideBlock(tb testing.TB, v2 []byte) []byte {
	return relayout(tb, v2, func(foot *footer, blocks [][]byte) {
		wide := make([]byte, 0, 2*len(blocks[0]))
		for _, code := range blocks[0] {
			wide = append(wide, code, 0)
		}
		blocks[0], foot.segs[0].blocks[0].enc = wide, encCode16
	})
}

// TestZpackOpenSeedsFailLoudly pins what the fuzz seeds are for: each
// corruption ends in its own error at the stage that meets it, and the
// untouched fixture loads.
func TestZpackOpenSeedsFailLoudly(t *testing.T) {
	v1, v2 := readFixture(t, "fixture_v1.zpack"), readFixture(t, "fixture_v2.zpack")
	dir := t.TempDir()
	stages := func(raw []byte) (open, verify, load error) {
		path := filepath.Join(dir, "seed.zpack")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			return err, nil, nil
		}
		defer r.Close()
		return nil, r.Verify(), r.LoadAll()
	}
	for name, fixture := range map[string][]byte{"v1": v1, "v2": v2} {
		if o, v, l := stages(fixture); o != nil || v != nil || l != nil {
			t.Fatalf("%s fixture: open %v, verify %v, load %v", name, o, v, l)
		}
	}
	if o, _, _ := stages(v1[:len(v1)-1]); o == nil {
		t.Error("a torn trailer opened")
	}
	flipped := bytes.Clone(v1)
	flipped[headerSize+3] ^= 0xff
	if o, v, l := stages(flipped); o != nil || v == nil || l == nil {
		t.Errorf("flipped data byte: open %v, verify %v, load %v; want the checksum error from verify and load", o, v, l)
	}
	// Only a load that reads the damaged block fails: segment 0's other
	// columns load, its first column does not.
	if err := os.WriteFile(filepath.Join(dir, "seed.zpack"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(filepath.Join(dir, "seed.zpack"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := len(r.foot.fields)
	if _, err := r.Load(0, columnMask(n, ^uint64(1)), nil); err != nil {
		t.Errorf("flipped data byte: a load of the undamaged columns failed: %v", err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := r.Load(0, columnMask(n, 1), nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("flipped data byte: load %d of the damaged column: %v; want the checksum error", attempt, err)
		}
	}
	if o, v, l := stages(missingDictValue(t, v1)); o != nil || v != nil || l == nil || !strings.Contains(l.Error(), "missing from footer dictionary") {
		t.Errorf("rewritten v1 dictionary: open %v, verify %v, load %v; want the missing-value error from load", o, v, l)
	}
	if o, v, l := stages(codeOutOfRange(t, v2)); o != nil || v != nil || l == nil || !strings.Contains(l.Error(), "dictionary code out of range [0,4)") {
		t.Errorf("v2 code past the dictionary: open %v, verify %v, load %v; want the out-of-range error from load", o, v, l)
	}
	if o, _, _ := stages(overwideBlock(t, v2)); o == nil || !strings.Contains(o.Error(), "in encoding 0x2") {
		t.Errorf("v2 block wider than its dictionary: open %v; want the footer refused", o)
	}
}
