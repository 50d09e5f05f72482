package zpack

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func genTable(name string, rows int, tag string) *dataset.Table {
	t := dataset.NewTable(name, []dataset.Field{
		{Name: "k", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindInt},
	})
	for i := 0; i < rows; i++ {
		t.AppendRow(dataset.SV(tag), dataset.IV(int64(i)))
	}
	return t
}

// TestReopenAcrossGenerationBoundary is the regression test for the stale-fd
// bug: when a compaction renames a new generation over the path, the old
// Reader's descriptor points at the now-unlinked old inode. Reopen used to
// re-read the footer through that shared descriptor, resurrecting the
// replaced generation; it must instead notice the inode changed and open the
// file fresh.
func TestReopenAcrossGenerationBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.zpack")
	if err := Build(path, genTable("gen", 100, "old")); err != nil {
		t.Fatal(err)
	}
	r1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	// Simulate the compactor's cutover: write the next generation beside the
	// file and atomically rename it into place. r1's descriptor now holds the
	// unlinked old inode.
	next := path + ".next"
	if err := Build(next, genTable("gen", 300, "new")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}

	// The old Reader is a consistent snapshot of the deleted-but-open old
	// generation: in-flight queries finish on the view they started with.
	if err := r1.LoadAll(); err != nil {
		t.Fatalf("old-generation reader cannot load after cutover: %v", err)
	}
	if r1.Rows() != 100 {
		t.Fatalf("old-generation reader sees %d rows, want 100", r1.Rows())
	}
	if got := r1.Table().Column("k").Dict(); len(got) != 1 || got[0] != "old" {
		t.Fatalf("old-generation reader dict = %v, want [old]", got)
	}

	// Reopen must serve the NEW generation, not re-read the stale descriptor.
	r2, err := r1.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Rows() != 300 {
		t.Fatalf("Reopen sees %d rows, want 300 (stale-fd bug: re-read old inode)", r2.Rows())
	}
	if err := r2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if got := r2.Table().Column("k").Dict(); len(got) != 1 || got[0] != "new" {
		t.Fatalf("Reopen dict = %v, want [new]", got)
	}
	if err := r2.Verify(); err != nil {
		t.Fatal(err)
	}

	// The new Reader owns its own descriptor: closing the old generation's
	// Reader must not pull the rug out from under it.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := r2.Reopen() // same inode now: the shared-descriptor fast path
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if r3.Rows() != 300 {
		t.Fatalf("post-close Reopen sees %d rows, want 300", r3.Rows())
	}
	if err := r3.LoadAll(); err != nil {
		t.Fatalf("descriptor died with the old reader: %v", err)
	}
}

// TestReopenSameInodeSharesDescriptor: when the path still names the inode
// the Reader holds, Reopen shares the descriptor rather than opening a new
// one, and hands its ownership to the successor.
func TestReopenSameInodeSharesDescriptor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.zpack")
	if err := Build(path, genTable("app", 50, "base")); err != nil {
		t.Fatal(err)
	}
	r1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTable(genTable("app", 25, "base")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := r1.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rows() != 75 {
		t.Fatalf("Reopen after append sees %d rows, want 75", r2.Rows())
	}
	// Shared descriptor: closing the superseded r1 is a no-op, both snapshots
	// keep reading, and closing r2 closes it for the lineage.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadAll(); err != nil {
		t.Fatalf("shared descriptor closed by the superseded reader: %v", err)
	}
	if err := r1.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Verify(); err == nil {
		t.Fatal("descriptor still open after the lineage's newest reader closed")
	}
}
