// Package roaring implements Roaring Bitmaps (Chambi, Lemire, Kaser, Godin:
// "Better bitmap performance with Roaring bitmaps") from scratch on the Go
// standard library. A Bitmap stores a set of uint32 keys partitioned into
// 2^16-value chunks; each chunk is held in one of three container types
// chosen by density:
//
//   - array container: sorted []uint16, used below 4096 elements,
//   - bitmap container: 1024 uint64 words, used for dense chunks,
//   - run container: sorted run-length intervals, used when runs compress
//     better than either (adopted via RunOptimize).
//
// This is the index structure behind zenvisage's in-memory "RoaringDB"
// back-end: one bitmap per distinct value of each indexed categorical column,
// intersected to evaluate conjunctive predicates.
package roaring

import "math/bits"

// arrayToBitmapThreshold is the cardinality at which an array container is
// promoted to a bitmap container (the canonical 4096 of the paper: above it,
// a bitmap's fixed 8 KiB beats 2 bytes/element).
const arrayToBitmapThreshold = 4096

const (
	bitmapWords = 1 << 10 // 65536 bits / 64
)

// container is one 2^16-value chunk of a bitmap.
type container interface {
	// add inserts v, returning the (possibly re-typed) container.
	add(v uint16) container
	// remove deletes v, returning the (possibly re-typed) container.
	remove(v uint16) container
	// contains reports membership.
	contains(v uint16) bool
	// cardinality returns the element count.
	cardinality() int
	// and/or/andNot combine two containers into a fresh one.
	and(other container) container
	or(other container) container
	andNot(other container) container
	// iterate calls fn for each element in ascending order.
	iterate(fn func(uint16))
	// sizeBytes estimates the in-memory footprint for optimization choices.
	sizeBytes() int
}

// ---------------------------------------------------------------- array ----

type arrayContainer struct {
	vals []uint16 // sorted ascending, unique
}

func (a *arrayContainer) find(v uint16) (int, bool) {
	lo, hi := 0, len(a.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.vals) && a.vals[lo] == v
}

func (a *arrayContainer) add(v uint16) container {
	i, found := a.find(v)
	if found {
		return a
	}
	if len(a.vals) >= arrayToBitmapThreshold {
		b := a.toBitmap()
		b.add(v)
		return b
	}
	a.vals = append(a.vals, 0)
	copy(a.vals[i+1:], a.vals[i:])
	a.vals[i] = v
	return a
}

func (a *arrayContainer) remove(v uint16) container {
	i, found := a.find(v)
	if !found {
		return a
	}
	a.vals = append(a.vals[:i], a.vals[i+1:]...)
	return a
}

func (a *arrayContainer) contains(v uint16) bool {
	_, found := a.find(v)
	return found
}

func (a *arrayContainer) cardinality() int { return len(a.vals) }

func (a *arrayContainer) toBitmap() *bitmapContainer {
	b := &bitmapContainer{}
	for _, v := range a.vals {
		b.words[v>>6] |= 1 << (v & 63)
	}
	b.card = len(a.vals)
	return b
}

// intersectArrays uses galloping search when the sizes are lopsided, the
// standard roaring trick for skewed intersections.
func intersectArrays(small, large []uint16) []uint16 {
	if len(small) > len(large) {
		small, large = large, small
	}
	var out []uint16
	if len(large) > 32*len(small) {
		// Galloping: binary search each small element in large.
		lo := 0
		for _, v := range small {
			// Exponential probe from lo.
			step := 1
			hi := lo
			for hi < len(large) && large[hi] < v {
				lo = hi + 1
				hi += step
				step *= 2
			}
			if hi > len(large) {
				hi = len(large)
			}
			// Binary search in [lo, hi).
			l, h := lo, hi
			for l < h {
				m := (l + h) / 2
				if large[m] < v {
					l = m + 1
				} else {
					h = m
				}
			}
			lo = l
			if lo < len(large) && large[lo] == v {
				out = append(out, v)
				lo++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(small) && j < len(large) {
		switch {
		case small[i] < large[j]:
			i++
		case small[i] > large[j]:
			j++
		default:
			out = append(out, small[i])
			i++
			j++
		}
	}
	return out
}

func (a *arrayContainer) and(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		return &arrayContainer{vals: intersectArrays(a.vals, o.vals)}
	case *bitmapContainer:
		var out []uint16
		for _, v := range a.vals {
			if o.contains(v) {
				out = append(out, v)
			}
		}
		return &arrayContainer{vals: out}
	case *runContainer:
		var out []uint16
		for _, v := range a.vals {
			if o.contains(v) {
				out = append(out, v)
			}
		}
		return &arrayContainer{vals: out}
	}
	return nil
}

func (a *arrayContainer) or(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		out := make([]uint16, 0, len(a.vals)+len(o.vals))
		i, j := 0, 0
		for i < len(a.vals) && j < len(o.vals) {
			switch {
			case a.vals[i] < o.vals[j]:
				out = append(out, a.vals[i])
				i++
			case a.vals[i] > o.vals[j]:
				out = append(out, o.vals[j])
				j++
			default:
				out = append(out, a.vals[i])
				i++
				j++
			}
		}
		out = append(out, a.vals[i:]...)
		out = append(out, o.vals[j:]...)
		if len(out) > arrayToBitmapThreshold {
			ac := arrayContainer{vals: out}
			return ac.toBitmap()
		}
		return &arrayContainer{vals: out}
	default:
		return other.or(a)
	}
}

func (a *arrayContainer) andNot(other container) container {
	var out []uint16
	for _, v := range a.vals {
		if !other.contains(v) {
			out = append(out, v)
		}
	}
	return &arrayContainer{vals: out}
}

func (a *arrayContainer) iterate(fn func(uint16)) {
	for _, v := range a.vals {
		fn(v)
	}
}

func (a *arrayContainer) sizeBytes() int { return 2 * len(a.vals) }

// --------------------------------------------------------------- bitmap ----

type bitmapContainer struct {
	words [bitmapWords]uint64
	card  int
}

func (b *bitmapContainer) add(v uint16) container {
	w, bit := v>>6, uint64(1)<<(v&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.card++
	}
	return b
}

func (b *bitmapContainer) remove(v uint16) container {
	w, bit := v>>6, uint64(1)<<(v&63)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		b.card--
		if b.card <= arrayToBitmapThreshold {
			return b.toArray()
		}
	}
	return b
}

func (b *bitmapContainer) contains(v uint16) bool {
	return b.words[v>>6]&(1<<(v&63)) != 0
}

func (b *bitmapContainer) cardinality() int { return b.card }

func (b *bitmapContainer) toArray() *arrayContainer {
	out := make([]uint16, 0, b.card)
	for w, word := range b.words {
		for word != 0 {
			t := word & -word
			out = append(out, uint16(w*64+bits.TrailingZeros64(word)))
			word ^= t
		}
	}
	return &arrayContainer{vals: out}
}

func (b *bitmapContainer) and(other container) container {
	switch o := other.(type) {
	case *bitmapContainer:
		res := &bitmapContainer{}
		card := 0
		for i := range b.words {
			w := b.words[i] & o.words[i]
			res.words[i] = w
			card += bits.OnesCount64(w)
		}
		res.card = card
		if card <= arrayToBitmapThreshold {
			return res.toArray()
		}
		return res
	default:
		return other.and(b)
	}
}

func (b *bitmapContainer) or(other container) container {
	res := &bitmapContainer{words: b.words}
	switch o := other.(type) {
	case *bitmapContainer:
		for i := range res.words {
			res.words[i] |= o.words[i]
		}
	default:
		other.iterate(func(v uint16) { res.words[v>>6] |= 1 << (v & 63) })
	}
	card := 0
	for _, w := range res.words {
		card += bits.OnesCount64(w)
	}
	res.card = card
	return res
}

func (b *bitmapContainer) andNot(other container) container {
	res := &bitmapContainer{words: b.words}
	switch o := other.(type) {
	case *bitmapContainer:
		for i := range res.words {
			res.words[i] &^= o.words[i]
		}
	default:
		other.iterate(func(v uint16) { res.words[v>>6] &^= 1 << (v & 63) })
	}
	card := 0
	for _, w := range res.words {
		card += bits.OnesCount64(w)
	}
	res.card = card
	if card <= arrayToBitmapThreshold {
		return res.toArray()
	}
	return res
}

func (b *bitmapContainer) iterate(fn func(uint16)) {
	for w, word := range b.words {
		for word != 0 {
			t := word & -word
			fn(uint16(w*64 + bits.TrailingZeros64(word)))
			word ^= t
		}
	}
}

func (b *bitmapContainer) sizeBytes() int { return bitmapWords * 8 }

// ----------------------------------------------------------------- run ----

// interval is an inclusive [start, start+length] run of set values.
type interval struct {
	start  uint16
	length uint16 // run covers start..start+length inclusive
}

type runContainer struct {
	runs []interval // sorted, non-overlapping, non-adjacent
}

func (r *runContainer) contains(v uint16) bool {
	lo, hi := 0, len(r.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		iv := r.runs[mid]
		switch {
		case v < iv.start:
			hi = mid
		case uint32(v) > uint32(iv.start)+uint32(iv.length):
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

func (r *runContainer) cardinality() int {
	n := 0
	for _, iv := range r.runs {
		n += int(iv.length) + 1
	}
	return n
}

// add and remove fall back to array/bitmap form: run containers are produced
// by RunOptimize and treated as read-optimized, which matches how the paper's
// database uses them (build once, query many).
func (r *runContainer) add(v uint16) container {
	c := r.thaw()
	return c.add(v)
}

func (r *runContainer) remove(v uint16) container {
	c := r.thaw()
	return c.remove(v)
}

// thaw converts the run container back to array or bitmap form.
func (r *runContainer) thaw() container {
	n := r.cardinality()
	if n > arrayToBitmapThreshold {
		b := &bitmapContainer{}
		r.iterate(func(v uint16) { b.words[v>>6] |= 1 << (v & 63) })
		b.card = n
		return b
	}
	vals := make([]uint16, 0, n)
	r.iterate(func(v uint16) { vals = append(vals, v) })
	return &arrayContainer{vals: vals}
}

func (r *runContainer) and(other container) container {
	if o, ok := other.(*runContainer); ok {
		var out []interval
		i, j := 0, 0
		for i < len(r.runs) && j < len(o.runs) {
			a, b := r.runs[i], o.runs[j]
			aEnd := uint32(a.start) + uint32(a.length)
			bEnd := uint32(b.start) + uint32(b.length)
			start := a.start
			if b.start > start {
				start = b.start
			}
			end := aEnd
			if bEnd < end {
				end = bEnd
			}
			if uint32(start) <= end {
				out = append(out, interval{start: start, length: uint16(end - uint32(start))})
			}
			if aEnd < bEnd {
				i++
			} else {
				j++
			}
		}
		return (&runContainer{runs: out}).maybeShrink()
	}
	// Thaw before delegating: bitmapContainer.and also delegates run
	// intersections here, so bouncing back would recurse forever.
	return r.thaw().and(other)
}

func (r *runContainer) maybeShrink() container {
	if r.cardinality() <= arrayToBitmapThreshold && len(r.runs)*4 > r.cardinality()*2 {
		return r.thaw()
	}
	return r
}

func (r *runContainer) or(other container) container {
	c := r.thaw()
	return c.or(other)
}

func (r *runContainer) andNot(other container) container {
	c := r.thaw()
	return c.andNot(other)
}

func (r *runContainer) iterate(fn func(uint16)) {
	for _, iv := range r.runs {
		end := uint32(iv.start) + uint32(iv.length)
		for v := uint32(iv.start); v <= end; v++ {
			fn(uint16(v))
		}
	}
}

func (r *runContainer) sizeBytes() int { return 4 * len(r.runs) }

// toRuns converts any container to run form, returning also the run count.
func toRuns(c container) *runContainer {
	var runs []interval
	started := false
	var start, prev uint16
	c.iterate(func(v uint16) {
		if !started {
			start, prev, started = v, v, true
			return
		}
		if v == prev+1 {
			prev = v
			return
		}
		runs = append(runs, interval{start: start, length: prev - start})
		start, prev = v, v
	})
	if started {
		runs = append(runs, interval{start: start, length: prev - start})
	}
	return &runContainer{runs: runs}
}
