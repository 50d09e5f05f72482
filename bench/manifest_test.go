package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf decodes a JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

// TestManifestSchema holds BENCHMARK.json to the builder contract's schema:
// exact key sets, name and unit alphabets, counts, bounds, and the total time
// the driver's runs may take.
func TestManifestSchema(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	wantKeys(t, "BENCHMARK.json", raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var lists struct {
		RunSeconds json.Number       `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&lists); err != nil {
		t.Fatal(err)
	}
	for _, w := range lists.Workloads {
		wantKeys(t, "workload", w, "name", "why")
	}
	for _, m := range lists.EndToEnd {
		wantKeys(t, "end-to-end metric", m, "name", "unit", "better", "bound")
	}
	for _, m := range lists.PerLayer {
		wantKeys(t, "per-layer metric", m, "name", "unit", "better")
	}
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}

	if n := len(man.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range man.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long or leaves the checkout", arg)
		}
	}
	if n := len(man.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries", n)
	}
	for _, p := range man.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is outside the contract's alphabet or the checkout", p)
		}
		err := filepath.WalkDir(filepath.Join("..", p), func(f string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && !d.Type().IsRegular() {
				t.Errorf("%s is not a regular file", f)
			}
			return err
		})
		if err != nil {
			t.Error(err)
		}
	}

	if _, err := lists.RunSeconds.Int64(); err != nil || man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %v is not a whole number in 1..60", lists.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s. Beside the
	// window a run costs 13 s here in a fast hour and 21 s in a slow one (go
	// run, data generation, three set-ups, the oracle), a traced run 9 s
	// more; two cold builds take ~25 s each.
	runs := 4 + 22*len(man.Workloads)
	if total := runs*(man.RunSeconds+21) + 50; total > 3420*92/100 { // the slow-hour estimate keeps a margin
		t.Errorf("%d runs of %d s windows need ~%d s, too close to the 3420 s cap: shorten every window equally", runs, man.RunSeconds, total)
	}

	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup *manifestMetric
	for i, m := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if i >= len(man.EndToEnd) {
			continue
		}
		// A gated metric repeats within a tenth or is demoted to per_layer.
		// setup_s cannot be demoted, so it alone may go to the contract's cap.
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if *m.Bound <= 0 || *m.Bound > limit {
			t.Errorf("metric %s: bound %v is outside (0, %v]", m.Name, *m.Bound, limit)
		}
		if m.Name == "setup_s" {
			setup = &man.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end_to_end needs setup_s with unit s and better lower")
	}
	for _, m := range man.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %v > %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

// TestManifestMatchesCode checks, both ways, that every workload and metric
// BENCHMARK.json names is one the code has, metrics with the same unit.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, code, file map[string]string) {
		for n, v := range code {
			if fv, ok := file[n]; !ok {
				t.Errorf("%s %s is emitted by the code but missing from BENCHMARK.json", what, n)
			} else if fv != v {
				t.Errorf("%s %s: code says %q, BENCHMARK.json says %q", what, n, v, fv)
			}
		}
		for n := range file {
			if _, ok := code[n]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but the code does not emit it", what, n)
			}
		}
	}
	code, file := map[string]string{}, map[string]string{}
	for _, name := range workloadNames {
		code[name] = ""
		if _, err := newWorkload(name, 1); err != nil {
			t.Errorf("workload %s is named but not built: %v", name, err)
		}
	}
	for _, w := range man.Workloads {
		file[w.Name] = ""
	}
	same("workload", code, file)

	units := func(defs []metricDef, ms []manifestMetric) (code, file map[string]string) {
		code, file = map[string]string{}, map[string]string{}
		for _, d := range defs {
			code[d.Name] = d.Unit
		}
		for _, m := range ms {
			file[m.Name] = m.Unit
		}
		return code, file
	}
	code, file = units(endToEndDefs, man.EndToEnd)
	same("end-to-end metric", code, file)
	code, file = units(perLayerDefs, man.PerLayer)
	same("per-layer metric", code, file)
}
