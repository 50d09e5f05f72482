// Command zbench regenerates every table and figure of the paper's
// evaluation (Chapters 7 and 8) and prints them in the same shape the paper
// reports. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	zbench -fig 7.1            # one figure
//	zbench -fig all -scale full
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zbench: ")
	fig := flag.String("fig", "all", "figure to regenerate: 7.1, 7.2, 7.3, 7.4, 7.5, 8.1, 8.2, or all")
	scaleFlag := flag.String("scale", "small", "dataset scale: small or full")
	flag.Parse()

	scale := experiments.ScaleSmall
	switch *scaleFlag {
	case "small":
	case "full":
		scale = experiments.ScaleFull
	default:
		log.Fatalf("unknown -scale %q (want small or full)", *scaleFlag)
	}

	runners := map[string]func(experiments.Scale) error{
		"7.1": fig71,
		"7.2": fig72,
		"7.3": fig73,
		"7.4": fig74,
		"7.5": fig75,
		"8.1": fig81,
		"8.2": fig82,
	}
	order := []string{"7.1", "7.2", "7.3", "7.4", "7.5", "8.1", "8.2"}
	if *fig == "all" {
		for _, f := range order {
			if err := runners[f](scale); err != nil {
				log.Fatalf("figure %s: %v", f, err)
			}
		}
		return
	}
	run, ok := runners[*fig]
	if !ok {
		log.Fatalf("unknown -fig %q (want one of %s, all)", *fig, strings.Join(order, ", "))
	}
	if err := run(scale); err != nil {
		log.Fatalf("figure %s: %v", *fig, err)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func tabw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printOptRows(rows []experiments.OptRow) {
	w := tabw()
	fmt.Fprintln(w, "query\tlevel\ttime\tSQL requests\tSQL queries")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\n", r.Query, r.Level, r.Time, r.Requests, r.Queries)
	}
	w.Flush()
}

func fig71(s experiments.Scale) error {
	header("Figure 7.1 — runtimes & SQL requests for Tables 5.1 (top) and 5.2 (bottom), synthetic sales")
	rows, err := experiments.Fig71(s)
	if err != nil {
		return err
	}
	printOptRows(rows)
	return nil
}

func fig72(s experiments.Scale) error {
	header("Figure 7.2 — runtimes & SQL requests for Tables 7.1 (left) and 7.2 (right), airline data")
	rows, err := experiments.Fig72(s)
	if err != nil {
		return err
	}
	printOptRows(rows)
	return nil
}

func fig73(s experiments.Scale) error {
	header("Figure 7.3 — task processors on real-world-shaped data (total time)")
	rows, err := experiments.Fig73(s)
	if err != nil {
		return err
	}
	w := tabw()
	fmt.Fprintln(w, "dataset\ttask\ttotal\tquery\tcompute")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\n", r.Dataset, r.Task, r.Total, r.Query, r.Compute)
	}
	w.Flush()
	return nil
}

func fig74(s experiments.Scale) error {
	header("Figure 7.4 — task processors vs number of groups (total / compute / query time)")
	rows, err := experiments.Fig74(s)
	if err != nil {
		return err
	}
	w := tabw()
	fmt.Fprintln(w, "groups\ttask\ttotal\tcompute\tquery")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%v\t%v\t%v\n", r.Groups, r.Task, r.Total, r.Compute, r.Query)
	}
	w.Flush()
	return nil
}

func fig75(s experiments.Scale) error {
	header("Figure 7.5 — rowstore (PostgreSQL stand-in) vs bitmapstore (RoaringDB) vs columnstore")
	rows, err := experiments.Fig75(s)
	if err != nil {
		return err
	}
	census, err := experiments.Fig75Census(s)
	if err != nil {
		return err
	}
	// rows scanned is the back-ends' comparable work metric — rows the
	// executor actually visited (see docs/ARCHITECTURE.md for the exact
	// per-store semantics); segments skipped is column-store zone-map work
	// avoided.
	w := tabw()
	fmt.Fprintln(w, "dataset\tselectivity\tgroups\tbackend\ttime\trows scanned\tsegs skipped")
	for _, r := range append(rows, census...) {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%v\t%d\t%d\n",
			r.Dataset, r.Selectivity, r.Groups, r.Backend, r.Time, r.RowsScanned, r.SegmentsSkipped)
	}
	w.Flush()
	return nil
}

func fig81(experiments.Scale) error {
	header("Table 8.1 — participants' prior experience with data analytic tools")
	w := tabw()
	fmt.Fprintln(w, "tools\tcount")
	for _, e := range study.PriorExperience {
		fmt.Fprintf(w, "%s\t%d\n", e.Tools, e.Count)
	}
	w.Flush()
	return nil
}

func fig82(experiments.Scale) error {
	header("Table 8.2 — Tukey's test on task completion time (simulated study, n=12, seed 8)")
	sim := study.Simulate(12, 8)
	cmp, anova, err := sim.Table82()
	if err != nil {
		return err
	}
	fmt.Printf("one-way ANOVA: F(%d,%d) = %.3f, p = %.5f\n", anova.DFGroups, anova.DFError, anova.F, anova.P)
	w := tabw()
	fmt.Fprintln(w, "treatments\tQ statistic\tinference")
	for _, c := range cmp {
		fmt.Fprintf(w, "%s vs. %s\t%.4f\t%s\n", c.A, c.B, c.Q, c.Inference)
	}
	w.Flush()

	header("Figure 8.2 — accuracy over time (expected accuracy of answers produced by time t)")
	curves := study.AccuracyOverTime(300, 30)
	w = tabw()
	fmt.Fprint(w, "t (s)")
	for _, iface := range []study.Interface{study.DragAndDrop, study.CustomBuilder, study.Baseline} {
		fmt.Fprintf(w, "\t%s", iface)
	}
	fmt.Fprintln(w)
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(w, "%d", i*30)
		for _, iface := range []study.Interface{study.DragAndDrop, study.CustomBuilder, study.Baseline} {
			fmt.Fprintf(w, "\t%.1f%%", curves[iface][i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Printf("workflow preference: 9 of 12 chose zenvisage, 2 the baseline (chi-square = %.2f)\n",
		study.PreferenceChiSquare())
	return nil
}
