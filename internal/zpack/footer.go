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
	name    string
	fields  []dataset.Field
	nrows   int64
	segs    []segMeta
	dicts   map[string][]string // categorical column -> dictionary, code order
	intVals map[string][]int64  // dict-encoded int column -> sorted distinct values
	zones   map[string]*engine.ZoneData
}

// segMeta is one segment's entry in the footer index.
type segMeta struct {
	rows   int
	blocks []blockRef // schema order, one per column
}

func (f *footer) encode() []byte {
	w := &binWriter{}
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
			vals, ok := f.intVals[fd.Name]
			if !ok {
				w.u8(0)
				continue
			}
			w.u8(1)
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
	return w.b
}

func decodeFooter(b []byte) (*footer, error) {
	r := &binReader{b: b}
	f := &footer{
		dicts:   make(map[string][]string),
		intVals: make(map[string][]int64),
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
	if r.err != nil || f.nrows < 0 || nseg > r.left()/(4+20*ncols) ||
		int64(nseg) != (f.nrows+engine.SegmentSize-1)/engine.SegmentSize {
		return nil, fmt.Errorf("zpack: corrupt footer: %d segments inconsistent with %d rows", nseg, f.nrows)
	}
	f.segs = make([]segMeta, nseg)
	var total int64
	for i := range f.segs {
		s := &f.segs[i]
		s.rows = int(r.u32())
		s.blocks = make([]blockRef, ncols)
		for j := range s.blocks {
			s.blocks[j] = blockRef{off: int64(r.u64()), len: int64(r.u64()), crc: r.u32()}
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
			if r.u8() == 0 {
				continue
			}
			n := int(r.u32())
			if r.err != nil || n > dataset.MaxIntDictCardinality {
				r.fail()
				break
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = r.i64()
			}
			f.intVals[fd.Name] = vals
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
