package dataset

import (
	"runtime"
	"unsafe"
)

// The arrays a served table keeps live outside the Go heap, in anonymous
// private mappings (mem_unix.go): the collector neither counts nor scans
// them, and a page nothing has written takes no memory. Each mapping has one
// owner, a *mapping that every Column over it references — a successor
// Column aliasing the same arrays shares it — and the owner's finalizer
// unmaps it. A value that keeps a slice of a column past the call that took
// it must therefore keep the Column as well.

// mapping owns one anonymous mapping.
type mapping struct{ b []byte }

// element is what a mapping may hold: the collector never scans a mapping,
// so a pointer kept in one would not keep its target alive.
type element interface {
	uint8 | uint16 | uint32 | int64 | float64
}

// newArray returns a zeroed array of n elements with room for capacity. With
// offHeap set it lives in a mapping of its own, returned beside it; on a
// platform without anonymous mappings, or when the mapping fails, it is an
// ordinary heap array and the mapping nil.
func newArray[T element](n, capacity int, offHeap bool) ([]T, *mapping) {
	if offHeap && capacity > 0 {
		var zero T
		if b := mapAnon(capacity * int(unsafe.Sizeof(zero))); b != nil {
			m := &mapping{b: b}
			runtime.SetFinalizer(m, (*mapping).unmap)
			return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), capacity)[:n], m
		}
	}
	return make([]T, n, capacity), nil
}

// movedOffHeap returns a copy of s, to its capacity, in a mapping of its own.
func movedOffHeap[T element](s []T) ([]T, *mapping) {
	out, m := newArray[T](len(s), cap(s), true)
	copy(out, s)
	return out, m
}
