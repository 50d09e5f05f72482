//go:build !linux

package zpack

// releasePages is a no-op where madvise(MADV_DONTNEED) is not relied on:
// presized storage stays whatever the allocator made it.
func releasePages([]byte) {}
