package roaring

import (
	"fmt"
	"sort"
	"strings"
)

// Bitmap is a compressed set of uint32 values, stored as a sorted sequence of
// (high-16-bit key, container) pairs. The zero value is an empty bitmap ready
// to use.
type Bitmap struct {
	keys       []uint16
	containers []container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// FromSlice builds a bitmap from arbitrary (possibly unsorted, duplicated)
// values.
func FromSlice(vals []uint32) *Bitmap {
	b := New()
	for _, v := range vals {
		b.Add(v)
	}
	return b
}

// FromRange builds a bitmap containing [lo, hi), constructing one run
// container per touched chunk directly rather than inserting value by value.
func FromRange(lo, hi uint32) *Bitmap {
	b := New()
	if lo >= hi {
		return b
	}
	last := hi - 1
	for key := uint16(lo >> 16); ; key++ {
		chunkLo := uint32(key) << 16
		start := uint16(0)
		if chunkLo < lo {
			start = uint16(lo)
		}
		end := uint16(0xffff)
		if uint32(key) == last>>16 {
			end = uint16(last)
		}
		b.keys = append(b.keys, key)
		b.containers = append(b.containers, (&runContainer{
			runs: []interval{{start: start, length: end - start}},
		}).maybeShrink())
		if uint32(key) == last>>16 {
			break
		}
	}
	return b
}

func (b *Bitmap) findKey(key uint16) (int, bool) {
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	return i, i < len(b.keys) && b.keys[i] == key
}

// Add inserts v into the set.
func (b *Bitmap) Add(v uint32) {
	key, low := uint16(v>>16), uint16(v)
	i, found := b.findKey(key)
	if found {
		b.containers[i] = b.containers[i].add(low)
		return
	}
	b.keys = append(b.keys, 0)
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = &arrayContainer{vals: []uint16{low}}
}

// Remove deletes v from the set if present.
func (b *Bitmap) Remove(v uint32) {
	key, low := uint16(v>>16), uint16(v)
	i, found := b.findKey(key)
	if !found {
		return
	}
	b.containers[i] = b.containers[i].remove(low)
	if b.containers[i].cardinality() == 0 {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
	}
}

// Contains reports whether v is in the set.
func (b *Bitmap) Contains(v uint32) bool {
	i, found := b.findKey(uint16(v >> 16))
	return found && b.containers[i].contains(uint16(v))
}

// Cardinality returns the number of values in the set.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.cardinality()
	}
	return n
}

// IsEmpty reports whether the set is empty.
func (b *Bitmap) IsEmpty() bool { return len(b.keys) == 0 }

// And returns the intersection of b and o as a new bitmap.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	res := New()
	i, j := 0, 0
	for i < len(b.keys) && j < len(o.keys) {
		switch {
		case b.keys[i] < o.keys[j]:
			i++
		case b.keys[i] > o.keys[j]:
			j++
		default:
			c := b.containers[i].and(o.containers[j])
			if c.cardinality() > 0 {
				res.keys = append(res.keys, b.keys[i])
				res.containers = append(res.containers, c)
			}
			i++
			j++
		}
	}
	return res
}

// Or returns the union of b and o as a new bitmap.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	res := New()
	i, j := 0, 0
	for i < len(b.keys) || j < len(o.keys) {
		switch {
		case j >= len(o.keys) || (i < len(b.keys) && b.keys[i] < o.keys[j]):
			res.keys = append(res.keys, b.keys[i])
			res.containers = append(res.containers, b.containers[i].or(&arrayContainer{}))
			i++
		case i >= len(b.keys) || b.keys[i] > o.keys[j]:
			res.keys = append(res.keys, o.keys[j])
			res.containers = append(res.containers, o.containers[j].or(&arrayContainer{}))
			j++
		default:
			res.keys = append(res.keys, b.keys[i])
			res.containers = append(res.containers, b.containers[i].or(o.containers[j]))
			i++
			j++
		}
	}
	return res
}

// AndNot returns the difference b \ o as a new bitmap.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	res := New()
	j := 0
	for i := 0; i < len(b.keys); i++ {
		for j < len(o.keys) && o.keys[j] < b.keys[i] {
			j++
		}
		if j < len(o.keys) && o.keys[j] == b.keys[i] {
			c := b.containers[i].andNot(o.containers[j])
			if c.cardinality() > 0 {
				res.keys = append(res.keys, b.keys[i])
				res.containers = append(res.containers, c)
			}
		} else {
			res.keys = append(res.keys, b.keys[i])
			res.containers = append(res.containers, b.containers[i].or(&arrayContainer{}))
		}
	}
	return res
}

// AndAll intersects all the given bitmaps, smallest-cardinality first, which
// is the order that lets galloping intersection pay off.
func AndAll(bms ...*Bitmap) *Bitmap {
	if len(bms) == 0 {
		return New()
	}
	sorted := append([]*Bitmap(nil), bms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cardinality() < sorted[j].Cardinality() })
	res := sorted[0]
	for _, b := range sorted[1:] {
		if res.IsEmpty() {
			return res
		}
		res = res.And(b)
	}
	return res
}

// Iterate calls fn for every value in ascending order.
func (b *Bitmap) Iterate(fn func(uint32)) {
	for i, key := range b.keys {
		base := uint32(key) << 16
		b.containers[i].iterate(func(low uint16) { fn(base | uint32(low)) })
	}
}

// IterateRange calls fn for every value in [lo, hi) in ascending order,
// visiting only the containers whose chunks meet the range.
func (b *Bitmap) IterateRange(lo, hi uint32, fn func(uint32)) {
	if lo >= hi {
		return
	}
	i, _ := b.findKey(uint16(lo >> 16))
	for ; i < len(b.keys) && b.keys[i] <= uint16((hi-1)>>16); i++ {
		base := uint32(b.keys[i]) << 16
		b.containers[i].iterate(func(low uint16) {
			if v := base | uint32(low); v >= lo && v < hi {
				fn(v)
			}
		})
	}
}

// ToSlice materializes the set as a sorted slice.
func (b *Bitmap) ToSlice() []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	b.Iterate(func(v uint32) { out = append(out, v) })
	return out
}

// Clone deep-copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	res := New()
	b.Iterate(func(v uint32) { res.Add(v) })
	return res
}

// RunOptimize converts containers to run form wherever runs are smaller,
// mirroring roaring's runOptimize. Intended after bulk build.
func (b *Bitmap) RunOptimize() {
	for i, c := range b.containers {
		rc := toRuns(c)
		if rc.sizeBytes() < c.sizeBytes() {
			b.containers[i] = rc
		}
	}
}

// SizeBytes estimates the in-memory footprint of the container payloads.
func (b *Bitmap) SizeBytes() int {
	n := 2 * len(b.keys)
	for _, c := range b.containers {
		n += c.sizeBytes()
	}
	return n
}

// String renders a short diagnostic like "{1, 2, 3, ... (n=1000)}".
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	n := 0
	b.Iterate(func(v uint32) {
		if n < 8 {
			if n > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		n++
	})
	if n > 8 {
		fmt.Fprintf(&sb, ", ... (n=%d)", n)
	}
	sb.WriteByte('}')
	return sb.String()
}

// ContainerKinds reports, for diagnostics and the ablation bench, how many
// containers of each kind the bitmap currently holds.
func (b *Bitmap) ContainerKinds() (arrays, bitmaps, runs int) {
	for _, c := range b.containers {
		switch c.(type) {
		case *arrayContainer:
			arrays++
		case *bitmapContainer:
			bitmaps++
		case *runContainer:
			runs++
		}
	}
	return
}
