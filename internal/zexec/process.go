package zexec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vis"
	"repro/internal/zql"
)

// loopTuple is one assignment of the loop variables of a task.
type loopTuple struct {
	assign point
	score  float64
}

// loopGroups partitions variables into lockstep groups: variables declared
// together (z-pairs, multi-output tasks) iterate zipped; independent
// variables iterate as a Cartesian product in the order given.
func (ex *executor) loopGroups(vars []string) ([][]string, error) {
	var out [][]string
	used := make(map[string]bool)
	for _, v := range vars {
		if used[v] {
			continue
		}
		g, ok := ex.groups[v]
		if !ok {
			used[v] = true
			out = append(out, []string{v})
			continue
		}
		// Use the group only if every group member is in vars; otherwise the
		// variable iterates alone over its own binding.
		all := true
		for _, gv := range g.vars {
			if !slices.Contains(vars, gv) {
				all = false
				break
			}
		}
		if all {
			for _, gv := range g.vars {
				used[gv] = true
			}
			out = append(out, g.vars)
		} else {
			used[v] = true
			out = append(out, []string{v})
		}
	}
	return out, nil
}

// loopSpace returns the space of base's dimensions followed by one per
// lockstep group of vars: the assignments of vars under each of base's, in
// vars order with groups zipped.
func (ex *executor) loopSpace(base *space, vars []string) (*space, error) {
	groups, err := ex.loopGroups(vars)
	if err != nil {
		return nil, err
	}
	dims := make([]dimension, len(groups))
	for i, g := range groups {
		if len(g) > 1 {
			dims[i] = dimension{vars: g, elems: ex.groups[g[0]].tuples}
			continue
		}
		b, ok := ex.bindings[g[0]]
		if !ok {
			return nil, fmt.Errorf("process variable %s is not defined", g[0])
		}
		dims[i] = dimension{vars: g, elems: singletons(b.elems)}
	}
	return newSpace(base, dims), nil
}

// runProcess executes one process declaration of a row. Tuples are
// materialized first, then scored — sequentially at NoOpt (the differential
// oracle), across the worker pool otherwise — and argmin/argmax [k=...]
// declarations take the pruned top-k path. Every path yields the same kept
// tuples in the same order.
func (ex *executor) runProcess(d *zql.ProcessDecl) error {
	if ex.opts.PlanOnly {
		// EXPLAIN plan mode: nothing was fetched, so there is nothing to
		// score. Output variables still bind (empty) so the rows that read
		// them become ready.
		ex.bindOutputs(d.OutVars, nil, nil)
		return nil
	}
	if d.Mech == zql.MechR {
		return ex.runR(d)
	}
	tuples, inner, err := ex.collectTuples(d)
	if err != nil {
		return err
	}
	var kept []loopTuple
	if k, ok := ex.topKPrunable(d, len(tuples)); ok {
		kept, err = ex.evalTopK(d, inner, tuples, k)
	} else {
		kept, err = ex.evalRankFilter(d, inner, tuples)
	}
	if err != nil {
		return err
	}
	ex.bindOutputs(d.OutVars, d.LoopVars, kept)
	return nil
}

// collectTuples materializes the declaration's loop assignments in iteration
// order; scoring happens separately so it can fan across workers. It also
// returns, per inner aggregation, the space of the loop variables followed
// by that level's and every shallower level's variables, built only when
// there is a tuple to score.
func (ex *executor) collectTuples(d *zql.ProcessDecl) ([]loopTuple, []*space, error) {
	sp, err := ex.loopSpace(nil, d.LoopVars)
	if err != nil {
		return nil, nil, err
	}
	pts := sp.points()
	tuples := make([]loopTuple, len(pts))
	for i, p := range pts {
		tuples[i].assign = p
	}
	var inner []*space
	for level := 0; level < len(d.Inner) && len(tuples) > 0; level++ {
		if sp, err = ex.loopSpace(sp, d.Inner[level].Vars); err != nil {
			return nil, nil, err
		}
		inner = append(inner, sp)
	}
	return tuples, inner, nil
}

// evalRankFilter scores every tuple, then applies the declaration's sort and
// filter exactly the way the sequential executor always has: argmin
// ascending, argmax descending (both stable), argany in input order; [k=...]
// truncates, [t...] thresholds.
func (ex *executor) evalRankFilter(d *zql.ProcessDecl, inner []*space, tuples []loopTuple) ([]loopTuple, error) {
	err := ex.forEachTuple(len(tuples), func(sc *vis.Scratch, i int) error {
		ex.proc.tuples.Add(1)
		score, err := ex.evalInner(d, inner, 0, tuples[i].assign, sc)
		if err != nil {
			return err
		}
		tuples[i].score = score
		return nil
	})
	if err != nil {
		return nil, err
	}
	switch d.Mech {
	case zql.MechArgmin, zql.MechArgmax:
		argmax := d.Mech == zql.MechArgmax
		sort.SliceStable(tuples, func(i, j int) bool {
			return scoreBetter(argmax, tuples[i].score, tuples[j].score)
		})
	}
	var kept []loopTuple
	switch d.Filter {
	case zql.FilterK:
		if d.K < 0 || d.K >= len(tuples) {
			kept = tuples
		} else {
			kept = tuples[:d.K]
		}
	case zql.FilterT:
		for _, t := range tuples {
			if thresholdOK(t.score, d.TOp, d.TVal) {
				kept = append(kept, t)
			}
		}
	default:
		kept = tuples
	}
	return kept, nil
}

func thresholdOK(score float64, op string, val float64) bool {
	switch op {
	case ">":
		return score > val
	case "<":
		return score < val
	case ">=":
		return score >= val
	case "<=":
		return score <= val
	}
	return false
}

// bindOutputs declares the task's output variables from the kept tuples —
// output variable i takes the element each tuple assigns loop variable i —
// registering them as a lockstep group when there are several.
func (ex *executor) bindOutputs(outVars, loopVars []string, kept []loopTuple) {
	outTuples := make([][]element, len(kept))
	slab := make([]element, len(kept)*len(loopVars))
	for i, t := range kept {
		outTuples[i] = slab[i*len(loopVars) : (i+1)*len(loopVars) : (i+1)*len(loopVars)]
		for vi, v := range loopVars {
			outTuples[i][vi], _ = t.assign.get(v)
		}
	}
	for vi, name := range outVars {
		b := &binding{}
		for _, t := range outTuples {
			b.elems = append(b.elems, t[vi])
		}
		ex.bindings[name] = b
	}
	if len(outVars) > 1 {
		g := &varGroup{vars: outVars, tuples: outTuples}
		for _, name := range outVars {
			ex.groups[name] = g
		}
	}
}

// evalInner evaluates the nested inner aggregations, over their spaces
// (collectTuples), then the leaf objective, measuring with sc.
func (ex *executor) evalInner(d *zql.ProcessDecl, inner []*space, level int, assign point, sc *vis.Scratch) (float64, error) {
	if level == len(d.Inner) {
		return ex.evalLeaf(d.Expr, assign, sc)
	}
	ia := d.Inner[level]
	first := true
	var acc float64
	err := inner[level].eachExtension(assign, func(p point) error {
		v, err := ex.evalInner(d, inner, level+1, p, sc)
		if err != nil {
			return err
		}
		switch {
		case first:
			acc = v
			first = false
		case ia.Fn == "min" && v < acc:
			acc = v
		case ia.Fn == "max" && v > acc:
			acc = v
		case ia.Fn == "sum":
			acc += v
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if first {
		return 0, fmt.Errorf("inner %s over empty variable set", ia.Fn)
	}
	return acc, nil
}

// lookupVis resolves a name variable to the visualization selected by the
// current assignment.
func (ex *executor) lookupVis(name string, assign point) (*vis.Visualization, error) {
	c, ok := ex.colls[name]
	if !ok {
		return nil, fmt.Errorf("name variable %s has no collection", name)
	}
	v := c.find(assign)
	if v == nil {
		return nil, fmt.Errorf("no visualization in %s matches the current loop assignment", name)
	}
	return v, nil
}

func (ex *executor) evalLeaf(e *zql.ObjExpr, assign point, sc *vis.Scratch) (float64, error) {
	switch e.Kind {
	case zql.ObjT:
		v, err := ex.lookupVis(e.F1, assign)
		if err != nil {
			return 0, err
		}
		return sc.Trend(v), nil
	case zql.ObjD:
		v1, err := ex.lookupVis(e.F1, assign)
		if err != nil {
			return 0, err
		}
		v2, err := ex.lookupVis(e.F2, assign)
		if err != nil {
			return 0, err
		}
		ex.proc.distCalls.Add(1)
		return sc.Distance(v1, v2, ex.opts.Metric), nil
	case zql.ObjU:
		fn, ok := ex.opts.UserFuncs[e.User]
		if !ok {
			return 0, fmt.Errorf("user function %s is not registered", e.User)
		}
		args := make([]*vis.Visualization, len(e.Args))
		for i, a := range e.Args {
			v, err := ex.lookupVis(a, assign)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return fn(args), nil
	}
	return 0, fmt.Errorf("unknown objective")
}

// runR executes an R(k, vars, f) representative-selection task.
func (ex *executor) runR(d *zql.ProcessDecl) error {
	sp, err := ex.loopSpace(nil, d.RVars)
	if err != nil {
		return err
	}
	pts := sp.points()
	viss := make([]*vis.Visualization, len(pts))
	for i, p := range pts {
		if viss[i], err = ex.lookupVis(d.RName, p); err != nil {
			return err
		}
	}
	picked := vis.Representative(viss, d.RK, ex.opts.Metric, ex.opts.Seed)
	kept := make([]loopTuple, 0, len(picked))
	for _, i := range picked {
		kept = append(kept, loopTuple{assign: pts[i]})
	}
	ex.bindOutputs(d.OutVars, d.RVars, kept)
	return nil
}

// processRefs lists the name variables a declaration reads.
func processRefs(d *zql.ProcessDecl) []string {
	var out []string
	if d.Mech == zql.MechR {
		return []string{d.RName}
	}
	if d.Expr != nil {
		switch d.Expr.Kind {
		case zql.ObjT:
			out = append(out, d.Expr.F1)
		case zql.ObjD:
			out = append(out, d.Expr.F1, d.Expr.F2)
		case zql.ObjU:
			out = append(out, d.Expr.Args...)
		}
	}
	return out
}

// processVarRefs lists the axis variables a declaration iterates.
func processVarRefs(d *zql.ProcessDecl) []string {
	var out []string
	out = append(out, d.LoopVars...)
	out = append(out, d.RVars...)
	for _, ia := range d.Inner {
		out = append(out, ia.Vars...)
	}
	return out
}
