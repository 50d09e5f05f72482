//go:build !unix

package dataset

// mapAnon maps nothing here: served arrays stay on the Go heap.
func mapAnon(int) []byte { return nil }

func (m *mapping) unmap() {}
