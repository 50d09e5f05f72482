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
)

// FuzzZpackOpen feeds arbitrary files to the reader. Open, Verify and LoadAll
// must each end in an error or success: never a panic, and never an
// allocation sized by a length the file cannot back — the bytes allocated
// stay within a fixed multiple of the file's size. Every input runs twice, as
// given and with its trailer's footer checksum recomputed, so that mutations
// inside the footer reach the decoder instead of stopping at the CRC.
//
//	go test ./internal/zpack -run '^$' -fuzz FuzzZpackOpen -fuzztime 30s
func FuzzZpackOpen(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fixture_v1.zpack"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte{})
	f.Add(fixture[:len(fixture)-1]) // torn trailer
	flipped := bytes.Clone(fixture)
	flipped[headerSize+3] ^= 0xff // segment 0's first block: a checksum error
	f.Add(flipped)
	f.Add(missingDictValue(f, fixture))

	path := filepath.Join(f.TempDir(), "fuzz.zpack")
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, b := range [][]byte{raw, resealFooter(raw)} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			openVerifyLoad(path)
			runtime.ReadMemStats(&after)
			if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<20); alloc > budget {
				t.Fatalf("a %d-byte file allocated %d bytes (budget %d)", len(b), alloc, budget)
			}
		}
	})
}

// openVerifyLoad runs the reader's whole surface over one file, continuing
// past errors so every stage sees every input that opens. Any error is an
// acceptable outcome; only a panic or the allocation bound fails an input.
func openVerifyLoad(path string) {
	r, err := Open(path)
	if err != nil {
		return
	}
	defer r.Close()
	_ = r.Verify()
	_ = r.LoadAll()
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

// missingDictValue rewrites the fixture's year dictionary so its largest
// value is one the blocks never hold, with every checksum valid: the load must
// name the value missing from the footer dictionary.
func missingDictValue(tb testing.TB, fixture []byte) []byte {
	tr := fixture[len(fixture)-trailerSize:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), binary.LittleEndian.Uint64(tr[8:16])
	foot, err := decodeFooter(fixture[off : off+n])
	if err != nil {
		tb.Fatal(err)
	}
	years := foot.intVals["year"]
	years[len(years)-1] += 1000
	enc := foot.encode()
	if uint64(len(enc)) != n {
		tb.Fatalf("re-encoded footer is %d bytes, want %d", len(enc), n)
	}
	out := bytes.Clone(fixture)
	copy(out[off:], enc)
	return resealFooter(out)
}

// TestZpackOpenSeedsFailLoudly pins what the fuzz seeds are for: each
// corruption ends in its own error at the stage that meets it, and the
// untouched fixture loads.
func TestZpackOpenSeedsFailLoudly(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fixture_v1.zpack"))
	if err != nil {
		t.Fatal(err)
	}
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
	if o, v, l := stages(fixture); o != nil || v != nil || l != nil {
		t.Fatalf("fixture: open %v, verify %v, load %v", o, v, l)
	}
	if o, _, _ := stages(fixture[:len(fixture)-1]); o == nil {
		t.Error("a torn trailer opened")
	}
	flipped := bytes.Clone(fixture)
	flipped[headerSize+3] ^= 0xff
	if o, v, l := stages(flipped); o != nil || v == nil || l == nil {
		t.Errorf("flipped data byte: open %v, verify %v, load %v; want the checksum error from verify and load", o, v, l)
	}
	if o, v, l := stages(missingDictValue(t, fixture)); o != nil || v != nil || l == nil || !strings.Contains(l.Error(), "missing from footer dictionary") {
		t.Errorf("rewritten dictionary: open %v, verify %v, load %v; want the missing-value error from load", o, v, l)
	}
}
