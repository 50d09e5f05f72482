package main

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestNewStoreNames pins the CLI's -backend table, the one place the row and
// bitmap names resolve: each name's store, "auto" building what "column"
// does, and an unknown name's error listing the valid set.
func TestNewStoreNames(t *testing.T) {
	tb := dataset.NewTable("p", []dataset.Field{{Name: "f", Kind: dataset.KindFloat}})
	tb.AppendRow(dataset.FV(1))
	for backend, want := range map[string]string{"row": "rowstore", "bitmap": "bitmapstore", "column": "columnstore", "auto": "columnstore"} {
		db, err := newStore(backend, tb)
		if err != nil {
			t.Fatalf("newStore(%q): %v", backend, err)
		}
		if db.Name() != want {
			t.Errorf("newStore(%q) = %s, want %s", backend, db.Name(), want)
		}
	}
	for _, backend := range []string{"", "quantum"} {
		db, err := newStore(backend, tb)
		if db != nil || err == nil || !strings.Contains(err.Error(), "(want row, bitmap, column, or auto)") {
			t.Errorf("newStore(%q) = %v, %v; want an error listing the valid names", backend, db, err)
		}
	}
}
