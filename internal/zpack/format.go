// Package zpack is the persistent columnar segment store: a versioned,
// checksummed on-disk format that serializes ColumnStore segments — column
// data, zone maps, dictionaries — plus a footer index, so a dataset opens by
// reading the footer and loads segments lazily on first touch. Zone-map
// skipping works without ever deserializing skipped segments, and a server
// restart over .zpack files reaches ready without re-parsing CSV.
//
// File layout (all integers little-endian; docs/FORMAT.md is the normative
// spec):
//
//	header   16 B   magic "ZPK1", version u32, 8 B reserved
//	blocks   ...    one block per (segment, column), raw typed payloads
//	footer   ...    schema, dictionaries, segment index, zone maps
//	trailer  24 B   footer offset u64, length u64, CRC-32C u32, magic "ZPKE"
//
// The file is append-only: committed byte ranges are never rewritten.
// Writer.Flush appends the open tail segment's blocks and a fresh footer +
// trailer at the end of the file; superseded tail blocks and footers become
// dead space. That is what makes appends snapshot-consistent — a reader that
// already holds a footer keeps resolving every offset it knows about, while
// new readers pick up the extended trailer at EOF.
package zpack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// Version is the on-disk format version this package reads and writes.
	Version = 1

	headerSize  = 16
	trailerSize = 24
)

var (
	headerMagic  = [4]byte{'Z', 'P', 'K', '1'}
	trailerMagic = [4]byte{'Z', 'P', 'K', 'E'}

	// castagnoli is the CRC-32C polynomial every block and the footer are
	// checksummed with.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// blockRef locates one (segment, column) block in the file.
type blockRef struct {
	off int64
	len int64
	crc uint32
}

// binWriter accumulates the footer payload.
type binWriter struct{ b []byte }

func (w *binWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *binWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *binWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *binWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *binWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// binReader decodes the footer payload with bounds checking; the first
// overrun poisons every subsequent read, so decoders check err once at the
// end of a section.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("zpack: corrupt footer: truncated at byte %d of %d", r.off, len(r.b))
	}
}

// left returns the bytes not yet decoded.
func (r *binReader) left() int { return len(r.b) - r.off }

func (r *binReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) i64() int64   { return int64(r.u64()) }
func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *binReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}
