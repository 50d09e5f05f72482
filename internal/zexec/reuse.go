package zexec

import (
	"strconv"

	"repro/internal/vis"
)

// Fetch-once: at InterTask a later row of a query often asks for
// visualizations an earlier request of the same query fetched already —
// every task the front-end compiles fetches a Z attribute's whole collection
// (f1), then the k slices its task picked (f2), with the same axes,
// visualization and constraints. The later row's SQL is the earlier's with
// a narrower IN list, and each of its visualizations depends only on its
// own Z values' rows, so fetching it again cannot change an answer bit. The
// executor remembers each fetched visualization under its unit's key; a row
// whose every unit is remembered takes those visualizations, in its own
// order, and issues no SQL. Visualizations are shared, never copied, which
// holds because nothing downstream writes one: the process phase and the
// Name-column operators build new slices and collections.
//
// The levels below InterTask keep the paper's Section 5 request counts, and
// a query with one SQL row (a drill-down) keeps no memo.

// fetched maps a unit key to the visualization fetched under it.
type fetched map[string]*vis.Visualization

// newFetched returns the memo of a run that may reuse visualizations, or
// nil: reuse is InterTask's, and needs a second SQL row to pay off.
func (ex *executor) newFetched() fetched {
	if ex.opts.Opt != InterTask {
		return nil
	}
	sqlRows := 0
	for _, r := range ex.q.Rows {
		if !r.Name.UserInput && r.Name.Expr == nil {
			sqlRows++
		}
	}
	if sqlRows < 2 {
		return nil
	}
	return fetched{}
}

// reuse gives every unit of a row's jobs its remembered visualization and
// reports true, or changes nothing and reports false when some unit is not
// remembered.
func (f fetched) reuse(jobs []*queryJob) bool {
	if f == nil {
		return false
	}
	var key []byte
	for _, j := range jobs {
		for _, u := range j.units {
			key = appendUnitKey(key[:0], j, u)
			if f[string(key)] == nil {
				return false
			}
		}
	}
	for _, j := range jobs {
		for _, u := range j.units {
			key = appendUnitKey(key[:0], j, u)
			u.out = f[string(key)]
		}
	}
	return true
}

// remember records the visualizations a request fetched.
func (f fetched) remember(jobs []*queryJob) {
	if f == nil {
		return
	}
	var key []byte
	for _, j := range jobs {
		for _, u := range j.units {
			key = appendUnitKey(key[:0], j, u)
			f[string(key)] = u.out
		}
	}
}

// appendUnitKey appends what a unit's visualization depends on: the row's
// expanded constraints, the X attributes and binning, the Y attributes (and
// a scatterplot's raw Y column, which its whole job shares), the
// aggregate, the visualization type, and the Z attribute-value pairs. The
// table is the run's. Every field is length-prefixed, so no two keys
// collide.
func appendUnitKey(dst []byte, j *queryJob, u *fetchUnit) []byte {
	field := func(s string) {
		dst = append(strconv.AppendInt(dst, int64(len(s)), 10), ':')
		dst = append(dst, s...)
	}
	field(j.cons)
	dst = strconv.AppendInt(dst, int64(len(u.xattrs)), 10)
	for _, x := range u.xattrs {
		field(x)
	}
	dst = strconv.AppendFloat(append(dst, '|'), u.vd.XBin, 'g', -1, 64)
	dst = strconv.AppendInt(append(dst, '|'), int64(len(u.yattrs)), 10)
	for _, y := range u.yattrs {
		field(y)
	}
	field(j.rawYCol)
	field(u.vd.YAgg)
	field(u.vd.Type)
	dst = strconv.AppendInt(dst, int64(len(u.slices)), 10)
	for _, s := range u.slices {
		field(s.Attr)
		field(s.Value)
	}
	return dst
}
