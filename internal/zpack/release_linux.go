package zpack

import (
	"os"
	"syscall"
	"unsafe"
)

var pageSize = uintptr(os.Getpagesize())

// releasePages gives the whole pages inside b back to the OS
// (madvise(MADV_DONTNEED)): they take no memory until written again, and read
// as zeros until then. b must be pointer-free storage that holds only zeros,
// or nothing anyone still wants.
func releasePages(b []byte) {
	if len(b) == 0 {
		return
	}
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (at + pageSize - 1) &^ (pageSize - 1)
	hi := (at + uintptr(len(b))) &^ (pageSize - 1)
	if lo < hi {
		// Advice, not a contract: on failure the pages just stay resident.
		_ = syscall.Madvise(b[lo-at:hi-at], syscall.MADV_DONTNEED)
	}
}
