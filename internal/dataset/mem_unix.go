//go:build unix

package dataset

import "syscall"

// mapAnon maps size bytes of zeroed, private, anonymous memory, or returns
// nil.
func mapAnon(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	return b
}

// unmap hands the mapping back; nothing may read it afterwards.
func (m *mapping) unmap() { _ = syscall.Munmap(m.b) }
