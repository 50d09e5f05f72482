package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, mm := range m.EndToEnd {
		if mm.Bound == nil {
			return nil, fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", mm.Name)
		}
	}
	return &m, nil
}

// selfCheck runs every workload twice over on the same binary — sides A and
// B, alternating, each pair of runs on its own seed — and holds the two
// medians of every end-to-end metric against the metric's bound, in either
// direction. With -runs 10 it is the driver's acceptance check: it also
// prints each side's quartile spread, and a metric whose spread is wider than
// its bound is unresolved on that workload, not within bounds. The ungated
// speed metrics are listed too, so the table shows the day's noise floor.
func selfCheck(ctx context.Context, env *benchEnv, names []string, opts runOpts, seed int64, runs int) error {
	man, err := readManifest(env.root)
	if err != nil {
		return err
	}
	rows := man.EndToEnd
	for _, mm := range man.PerLayer {
		for _, d := range speedDefs {
			if mm.Name == d.Name {
				rows = append(rows, mm)
			}
		}
	}
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	for r := 0; r < runs; r++ {
		if err := env.generate(seed + int64(r)); err != nil {
			return err
		}
		for _, name := range names {
			for side := range sides {
				res, err := runOnce(ctx, env, name, opts)
				if err != nil {
					return err
				}
				if res.failed > 0 {
					return fmt.Errorf("%s: %w: %v", name, errIncorrect, res.problems)
				}
				for _, mm := range rows {
					k := key{name, mm.Name}
					sides[side][k] = append(sides[side][k], res.metrics[mm.Name])
				}
				fmt.Fprintf(os.Stderr, "aa: seed %d %s side %c done\n", env.seed, name, 'A'+side)
			}
		}
	}
	fmt.Printf("%-12s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound")
	over := 0
	for _, name := range names {
		for _, mm := range rows {
			a, b := sides[0][key{name, mm.Name}], sides[1][key{name, mm.Name}]
			ma, mb := median(a), median(b)
			// Same code on both sides, so a difference in either direction is
			// noise: it is taken as a share of the better side.
			worse := (mb - ma) / math.Min(ma, mb)
			if mm.Better == "higher" {
				worse = (ma - mb) / math.Min(ma, mb)
			}
			spreadA, spreadB, spreads := math.NaN(), math.NaN(), "       -        -" // quartiles want four runs
			if runs >= 4 {
				spreadA, spreadB = quartileSpread(a), quartileSpread(b)
				spreads = fmt.Sprintf("%8.3f %8.3f", spreadA, spreadB)
			}
			bound, verdict := "-", ""
			if mm.Bound != nil {
				bound = fmt.Sprintf("%.2f", *mm.Bound)
				switch {
				case math.Abs(worse) > *mm.Bound:
					verdict = "  OVER"
					over++
				case mm.Name != "setup_s" && math.Max(spreadA, spreadB) > *mm.Bound: // the driver exempts setup_s's spread too
					verdict = "  UNRESOLVED"
					over++
				}
			}
			fmt.Printf("%-12s %-22s %12.4f %12.4f %+8.3f %s %6s%s\n", name, mm.Name, ma, mb, worse, spreads, bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d gated metric(s) differ between two runs of the same code, or spread, by more than their bound", over)
	}
	return nil
}
