//go:build !linux

package zpack

// canRelease reports whether releasePages gives memory back: here it does
// not, so no block is ever released.
const canRelease = false

// releasePages is a no-op where madvise(MADV_DONTNEED) is not relied on:
// presized storage stays whatever the allocator made it.
func releasePages([]byte) {}
