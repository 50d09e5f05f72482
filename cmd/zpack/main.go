// Command zpack builds, inspects, extends, and verifies .zpack files — the
// persistent columnar segment format zserved serves with warm restarts (see
// docs/FORMAT.md for the layout).
//
// Usage:
//
//	zpack build  -o data.zpack [-name n] input.csv    build from CSV
//	zpack append -to data.zpack input.csv             append CSV rows
//	zpack compact [-cols a,b] data.zpack              rewrite re-clustered (z-order)
//	zpack inspect data.zpack                          print footer metadata
//	zpack verify data.zpack                           check every checksum
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/compact"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zpack"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zpack: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "append":
		cmdAppend(os.Args[2:])
	case "compact":
		cmdCompact(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  zpack build  -o data.zpack [-name n] input.csv
  zpack append -to data.zpack input.csv
  zpack compact [-cols a,b] data.zpack
  zpack inspect data.zpack
  zpack verify data.zpack
`)
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output .zpack path (required)")
	name := fs.String("name", "", "dataset name (default: output file base name)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(*out), ".zpack")
	}
	// The decoded chunks go to the file as they are: no table is stitched.
	ch, err := dataset.DecodeCSVFile(*name, fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if err := zpack.Build(*out, ch); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	nseg := (ch.NumRows() + engine.SegmentSize - 1) / engine.SegmentSize
	log.Printf("wrote %s: %d rows, %d columns, %d segments, %d bytes", *out, ch.NumRows(), len(ch.Fields()), nseg, st.Size())
}

func cmdAppend(args []string) {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	to := fs.String("to", "", "existing .zpack file to extend (required)")
	fs.Parse(args)
	if *to == "" || fs.NArg() != 1 {
		usage()
	}
	w, err := zpack.OpenAppend(*to)
	if err != nil {
		log.Fatal(err)
	}
	before := w.Rows()
	t, err := dataset.ReadCSVFile("input", fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AppendTable(t); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("appended %d rows to %s: now %d rows in %d segments", w.Rows()-before, *to, w.Rows(), w.Segments())
}

func cmdCompact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	cols := fs.String("cols", "", "comma-separated cluster columns in significance order (default: pick by dictionary statistics)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	var opts compact.Options
	if *cols != "" {
		for _, c := range strings.Split(*cols, ",") {
			opts.Cols = append(opts.Cols, strings.TrimSpace(c))
		}
	}
	res, err := compact.File(fs.Arg(0), opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("compacted %s: %d rows in %d segments re-clustered on %s (%d segments were out of order)",
		fs.Arg(0), res.Rows, res.Segments, strings.Join(res.Cols, ","), res.UnsortedBefore)
}

func cmdInspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	r, err := zpack.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	st, err := os.Stat(args[0])
	if err != nil {
		log.Fatal(err)
	}
	t := r.Table()
	fmt.Printf("%s: zpack v%d, %d bytes\n", args[0], r.Version(), st.Size())
	fmt.Printf("dataset %q: %d rows, %d segments\n", r.Name(), r.Rows(), r.NumSegments())
	fmt.Println("columns:")
	for j, c := range t.Columns() {
		extra := ""
		if c.Coded() {
			extra = fmt.Sprintf(" (dict %d)", c.Cardinality())
		}
		var encs []string
		for s := 0; s < r.NumSegments(); s++ {
			if enc := r.Encoding(s, j); !slices.Contains(encs, enc) {
				encs = append(encs, enc)
			}
		}
		if len(encs) > 0 {
			extra += " blocks " + strings.Join(encs, ",")
		}
		fmt.Printf("  %-20s %s%s\n", c.Field.Name, c.Field.Kind, extra)
	}
	if n := r.NumSegments(); n > 0 {
		fmt.Println("segments:")
		for s := 0; s < n; s++ {
			state := "sealed"
			if r.SegmentRows(s) < engine.SegmentSize {
				state = "tail"
			}
			fmt.Printf("  %4d: %4d rows (%s)\n", s, r.SegmentRows(s), state)
		}
	}
}

func cmdVerify(args []string) {
	if len(args) != 1 {
		usage()
	}
	r, err := zpack.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		log.Fatal(err)
	}
	log.Printf("%s: ok (%d rows, %d segments, all checksums verified)", args[0], r.Rows(), r.NumSegments())
}
