package zexec

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/zql"
)

const levelsGoldenPath = "testdata/levels.golden"

// TestLevelsPin pins where every optimization level draws its request
// boundaries: for every golden script and every zql.Corpus query over the
// sales fixture, at o0..o3, the request and statement counts, the sha256 of
// the SQL log and of the rendered result — or the error text. A scheduler
// change that moves a statement between requests, reorders the log or
// changes an answer moves a line here.
//
//	go test ./internal/zexec -run TestLevelsPin -update
func TestLevelsPin(t *testing.T) {
	type pinCase struct {
		name, src string
		gc        goldenCase
	}
	var cases []pinCase
	for _, gc := range goldenCases() {
		src, err := os.ReadFile(filepath.Join("testdata", "zql", gc.file))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pinCase{strings.TrimSuffix(gc.file, ".zql"), string(src), gc})
	}
	keys := make([]string, 0, len(zql.Corpus))
	for key := range zql.Corpus {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		cases = append(cases, pinCase{"table " + key, zql.Corpus[key], goldenCase{table: fixtureSales, inputs: drawnInput()}})
	}
	var b strings.Builder
	for _, c := range cases {
		q, err := zql.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %s: %v", c.name, err)
		}
		tbl := c.gc.table()
		db := engine.NewRowStore(tbl)
		prevRequests := -1
		for _, opt := range allLevels {
			res, err := Run(q, db, Options{Table: tbl.Name, Seed: 42, Inputs: c.gc.inputs, Opt: opt})
			if err != nil {
				fmt.Fprintf(&b, "%s o%d: error: %v\n", c.name, opt, err)
				continue
			}
			// The levels are cumulative: a higher one never needs more
			// requests.
			if prevRequests >= 0 && res.Stats.Requests > prevRequests {
				t.Errorf("%s: %v sends %d requests, more than the level below it (%d)", c.name, opt, res.Stats.Requests, prevRequests)
			}
			prevRequests = res.Stats.Requests
			fmt.Fprintf(&b, "%s o%d: requests=%d queries=%d sql=%x result=%x\n", c.name, opt,
				res.Stats.Requests, res.Stats.SQLQueries,
				sha256.Sum256([]byte(strings.Join(res.SQLLog, "\n"))), sha256.Sum256([]byte(encodeResult(res))))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(levelsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(levelsGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (run with -update to generate): %v", levelsGoldenPath, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", levelsGoldenPath, i+1, g, w)
		}
	}
}
