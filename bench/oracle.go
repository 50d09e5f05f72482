package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	zclient "repro/client"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/zexec"
)

// oracle answers a request in-process, over a store built independently of
// the one serving: the generated CSV read back, plus every acknowledged
// append, in a row store with the conjunct planner off.
type oracle struct {
	table *dataset.Table
	sess  *zclient.Session
	loadS float64 // dataset.ReadCSVFile wall time
}

func newOracle(env *benchEnv, w *traffic, acked []int) (*oracle, error) {
	t0 := time.Now()
	t, err := dataset.ReadCSVFile(datasetName, env.csvPath)
	if err != nil {
		return nil, err
	}
	o := &oracle{table: t, loadS: time.Since(t0).Seconds()}
	for _, b := range acked {
		for _, row := range w.batches[b] {
			t.AppendRow(row...)
		}
	}
	store := engine.NewRowStore(t)
	store.SetPlanning(false)
	// Batched level: at noopt each request would be 500 full scans.
	o.sess, err = zclient.OpenDB(store, datasetName, zclient.WithOptLevel(zexec.InterTask), zclient.WithSeed(serverSeed))
	return o, err
}

// check sends the request to the server and compares its result with the
// in-process answer: same visualizations, labels, order and x values, y
// values within 1e-9 relative.
func (o *oracle) check(ctx context.Context, cl *client, q *op) error {
	if err := cl.send(ctx, q); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	var got struct {
		Result any `json:"result"`
	}
	if err := json.Unmarshal(cl.buf.Bytes(), &got); err != nil {
		return fmt.Errorf("oracle: decoding response: %w", err)
	}
	spec := q.spec
	text, inputs, err := spec.ToZQL()
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	res, err := o.sess.QueryContext(ctx, text, inputs, zexec.InterTask)
	if err != nil {
		return fmt.Errorf("oracle: in-process run: %w", err)
	}
	enc, err := json.Marshal(server.EncodeResult(res))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	var want any
	if err := json.Unmarshal(enc, &want); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := sameJSON(got.Result, want, "result"); err != nil {
		return fmt.Errorf("oracle: %s %s: %w", spec.Task, spec.Y, err)
	}
	return nil
}

// floatTolerance is relative: SUM/AVG over these floats differ in the last
// ulps across shard count and compaction order (ROADMAP item 3a).
const floatTolerance = 1e-9

// sameJSON compares two decoded JSON values exactly, except that numbers may
// differ by floatTolerance relative.
func sameJSON(got, want any, path string) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: objects differ", path)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s: missing %q", path, k)
			}
			if err := sameJSON(gv, wv, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: arrays differ in length", path)
		}
		for i := range w {
			if err := sameJSON(g[i], w[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > floatTolerance*math.Max(math.Abs(g), math.Abs(w)) {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
	}
	return nil
}
