package zpack

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// footer is the decoded metadata index of a zpack file: everything a reader
// needs before touching any data block — schema, dictionaries, the segment
// block index, and every column's zone maps.
type footer struct {
	version int
	name    string
	fields  []dataset.Field
	nrows   int64
	segs    []segMeta
	dicts   map[string][]string // categorical column -> dictionary, code order
	intVals map[string][]int64  // coded int column -> value dictionary, code order (v1: sorted)
	oldInts map[string][]int64  // raw int column -> the dictionary its code blocks from before it went raw index
	zones   map[string]*engine.ZoneData
}

// segMeta is one segment's entry in the footer index.
type segMeta struct {
	rows   int
	blocks []blockRef // schema order, one per column
}

// encode returns the footer payload, allocated once at its size: a first
// pass only counts the bytes.
func (f *footer) encode() []byte {
	size := &binWriter{}
	f.write(size)
	w := &binWriter{b: make([]byte, 0, size.n)}
	f.write(w)
	return w.b
}

func (f *footer) write(w *binWriter) {
	w.str(f.name)
	w.u32(uint32(len(f.fields)))
	for _, fd := range f.fields {
		w.str(fd.Name)
		w.u8(uint8(fd.Kind))
	}
	w.u64(uint64(f.nrows))
	w.u32(uint32(len(f.segs)))
	for _, s := range f.segs {
		w.u32(uint32(s.rows))
		for _, b := range s.blocks {
			w.u64(uint64(b.off))
			w.u64(uint64(b.len))
			w.u32(b.crc)
			w.u8(b.enc)
		}
	}
	for _, fd := range f.fields {
		switch fd.Kind {
		case dataset.KindString:
			dict := f.dicts[fd.Name]
			w.u32(uint32(len(dict)))
			for _, s := range dict {
				w.str(s)
			}
		case dataset.KindInt:
			vals, coded := f.intVals[fd.Name]
			switch {
			case coded:
				w.u8(1)
			case f.oldInts[fd.Name] != nil:
				w.u8(2)
				vals = f.oldInts[fd.Name]
			default:
				w.u8(0)
				continue
			}
			w.u32(uint32(len(vals)))
			for _, v := range vals {
				w.i64(v)
			}
		}
	}
	nseg := len(f.segs)
	for _, fd := range f.fields {
		z := f.zones[fd.Name]
		if fd.Kind == dataset.KindString {
			w.u32(uint32(z.Words))
			for _, p := range z.Present {
				w.u64(p)
			}
			continue
		}
		for s := 0; s < nseg; s++ {
			w.f64(z.Min[s])
		}
		for s := 0; s < nseg; s++ {
			w.f64(z.Max[s])
		}
		for s := 0; s < nseg; s++ {
			if z.NaN[s] {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
	}
}

// decodeFooter decodes the footer of a file of the given format version.
func decodeFooter(b []byte, version int) (*footer, error) {
	r := &binReader{b: b}
	f := &footer{
		version: version,
		dicts:   make(map[string][]string),
		intVals: make(map[string][]int64),
		oldInts: make(map[string][]int64),
		zones:   make(map[string]*engine.ZoneData),
	}
	// Every count below sizes an allocation, so each is checked against the
	// bytes left to decode it from before anything is made.
	f.name = r.str()
	ncols := int(r.u32())
	if r.err != nil || ncols > r.left()/5 { // a field is at least a length and a kind
		return nil, fmt.Errorf("zpack: corrupt footer: implausible column count %d", ncols)
	}
	f.fields = make([]dataset.Field, ncols)
	for i := range f.fields {
		f.fields[i] = dataset.Field{Name: r.str(), Kind: dataset.Kind(r.u8())}
		if k := f.fields[i].Kind; r.err == nil && k > dataset.KindFloat {
			return nil, fmt.Errorf("zpack: corrupt footer: column %q has unknown kind %d", f.fields[i].Name, k)
		}
	}
	f.nrows = r.i64()
	nseg := int(r.u32())
	if r.err != nil || f.nrows < 0 || nseg > r.left()/(4+(19+version)*ncols) || // a block ref: 20 bytes, + encoding in v2
		int64(nseg) != (f.nrows+engine.SegmentSize-1)/engine.SegmentSize {
		return nil, fmt.Errorf("zpack: corrupt footer: %d segments inconsistent with %d rows", nseg, f.nrows)
	}
	f.segs = make([]segMeta, nseg)
	var total int64
	for i := range f.segs {
		s := &f.segs[i]
		s.rows = int(r.u32())
		s.blocks = make([]blockRef, ncols)
		for j, fd := range f.fields {
			s.blocks[j] = blockRef{off: int64(r.u64()), len: int64(r.u64()), crc: r.u32(), enc: encV1Values}
			if version > 1 {
				s.blocks[j].enc = r.u8()
			} else if fd.Kind == dataset.KindString {
				s.blocks[j].enc = encV1Codes
			}
		}
		if r.err != nil {
			break
		}
		if s.rows <= 0 || s.rows > engine.SegmentSize || (s.rows < engine.SegmentSize && i != nseg-1) {
			return nil, fmt.Errorf("zpack: corrupt footer: segment %d holds %d rows (only the last segment may be partial)", i, s.rows)
		}
		total += int64(s.rows)
	}
	if r.err == nil && total != f.nrows {
		return nil, fmt.Errorf("zpack: corrupt footer: segment rows sum to %d, want %d", total, f.nrows)
	}
	for _, fd := range f.fields {
		switch fd.Kind {
		case dataset.KindString:
			n := int(r.u32())
			if r.err != nil || n > r.left()/4 {
				r.fail()
				break
			}
			dict := make([]string, n)
			for i := range dict {
				dict[i] = r.str()
			}
			f.dicts[fd.Name] = dict
		case dataset.KindInt:
			mode := r.u8()
			if mode == 0 {
				continue
			}
			n := int(r.u32())
			if r.err != nil || n > dataset.MaxIntDictCardinality || mode > 2 || mode == 2 && version == 1 {
				r.fail()
				break
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = r.i64()
			}
			if mode == 1 {
				f.intVals[fd.Name] = vals
			} else {
				f.oldInts[fd.Name] = vals
			}
		}
	}
	for _, fd := range f.fields {
		z := &engine.ZoneData{}
		if fd.Kind == dataset.KindString {
			z.Words = int(r.u32())
			if wantWords := (len(f.dicts[fd.Name]) + 63) / 64; r.err == nil &&
				(z.Words < 1 || (wantWords > 0 && z.Words < wantWords)) {
				return nil, fmt.Errorf("zpack: corrupt footer: column %q zone words %d below dictionary need", fd.Name, z.Words)
			}
			if nseg > 0 && z.Words > r.left()/(8*nseg) {
				r.fail()
			}
			if r.err == nil {
				z.Present = make([]uint64, nseg*z.Words)
				for i := range z.Present {
					z.Present[i] = r.u64()
				}
			}
		} else {
			z.Min = make([]float64, nseg)
			z.Max = make([]float64, nseg)
			z.NaN = make([]bool, nseg)
			for s := 0; s < nseg; s++ {
				z.Min[s] = r.f64()
			}
			for s := 0; s < nseg; s++ {
				z.Max[s] = r.f64()
			}
			for s := 0; s < nseg; s++ {
				z.NaN[s] = r.u8() != 0
			}
		}
		f.zones[fd.Name] = z
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("zpack: corrupt footer: %d trailing bytes", len(b)-r.off)
	}
	return f, nil
}

// fits reports whether a block of column fd may have encoding enc: codes no
// wider than memory packs its dictionary's at (for a raw int column, the
// dictionary its older code blocks index), or raw values in a raw column. A v1
// footer's encodings come from the column kinds and always fit.
func (f *footer) fits(fd dataset.Field, enc uint8) bool {
	ints, coded := f.intVals[fd.Name]
	old, hasOld := f.oldInts[fd.Name]
	switch enc {
	case encCode8, encCode16, encCode32:
		card := len(ints) + len(old) + len(f.dicts[fd.Name])
		return (fd.Kind == dataset.KindString || coded || hasOld) && encWidth(enc) <= dataset.CodeWidth(card)
	case encRaw:
		return fd.Kind == dataset.KindFloat || fd.Kind == dataset.KindInt && !coded
	}
	return f.version == 1
}
