// Package engine executes minisql queries against dataset tables. It
// provides three storage back-ends behind one DB interface, each the
// executor of one table:
//
//   - RowStore: a full-scan executor with hash aggregation, standing in for
//     the PostgreSQL back-end of the paper,
//   - BitmapStore: a store with one roaring bitmap per distinct value of
//     each indexed categorical column, standing in for zenvisage's "Roaring
//     Bitmap Database",
//   - ColumnStore: a segmented columnar executor that evaluates predicates
//     vectorized over selection bitmaps, skips segments its zone maps prove
//     empty, and aggregates through flat dictionary-code accumulators.
//
// All back-ends share the projection / grouping / aggregation / ordering
// pipeline; they differ only in how they produce the set of matching rows,
// which is exactly the axis the paper's Figure 7.5 experiment measures.
// Results are byte-identical across back-ends — the golden corpus under
// internal/zexec/testdata pins it. See docs/ARCHITECTURE.md for the
// store-by-store comparison and counter semantics.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// rowPredicate tests whether table row i satisfies a predicate.
type rowPredicate func(i int) bool

// compilePredicate resolves column references once and returns a closure
// evaluated per row. A nil expr compiles to an always-true predicate.
func compilePredicate(t *dataset.Table, e minisql.Expr) (rowPredicate, error) {
	if e == nil {
		return func(int) bool { return true }, nil
	}
	switch x := e.(type) {
	case *minisql.And:
		preds := make([]rowPredicate, len(x.Args))
		for i, a := range x.Args {
			p, err := compilePredicate(t, a)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return func(i int) bool {
			for _, p := range preds {
				if !p(i) {
					return false
				}
			}
			return true
		}, nil
	case *minisql.Or:
		preds := make([]rowPredicate, len(x.Args))
		for i, a := range x.Args {
			p, err := compilePredicate(t, a)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return func(i int) bool {
			for _, p := range preds {
				if p(i) {
					return true
				}
			}
			return false
		}, nil
	case *minisql.Not:
		p, err := compilePredicate(t, x.Arg)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !p(i) }, nil
	case *minisql.Compare, *minisql.In, *minisql.Like, *minisql.Between:
		return compileLeaf(t, e)
	}
	return nil, fmt.Errorf("engine: unsupported predicate %T", e)
}

func lookupColumn(t *dataset.Table, name string) (*dataset.Column, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("engine: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// leafColumn returns the name of the one column a leaf predicate reads.
func leafColumn(e minisql.Expr) string {
	switch x := e.(type) {
	case *minisql.Compare:
		return x.Col
	case *minisql.In:
		return x.Col
	case *minisql.Like:
		return x.Col
	case *minisql.Between:
		return x.Col
	}
	return ""
}

// compileLeaf compiles a predicate over one column. Over a dictionary-coded
// column it is decided once per dictionary entry, by the very test a raw
// column applies per row, and a row only looks its code up.
func compileLeaf(t *dataset.Table, e minisql.Expr) (rowPredicate, error) {
	c, err := lookupColumn(t, leafColumn(e))
	if err != nil {
		return nil, err
	}
	if c.Field.Kind == dataset.KindString {
		return stringLeaf(c, e), nil
	}
	test := numericTest(e)
	if c.Coded() {
		member := test.members(c)
		return func(i int) bool { return member[c.Code(i)] != 0 }, nil
	}
	return test.over(c), nil
}

// stringEq recognises equality or inequality between a categorical column and
// a string — the leaf that is one dictionary code, -1 for a string the
// dictionary has never seen.
func stringEq(c *dataset.Column, e minisql.Expr) (code int32, neq, ok bool) {
	x, isCmp := e.(*minisql.Compare)
	if !isCmp || x.Val.Kind != dataset.KindString || (x.Op != minisql.CmpEq && x.Op != minisql.CmpNe) {
		return 0, false, false
	}
	return c.CodeOf(x.Val.S), x.Op == minisql.CmpNe, true
}

// stringMembers decides an IN list or a LIKE pattern over a categorical
// column once per dictionary entry: member[code] is 1 where rows carrying the
// code match.
func stringMembers(c *dataset.Column, e minisql.Expr) (member []uint8, ok bool) {
	switch x := e.(type) {
	case *minisql.In:
		member = make([]uint8, c.Cardinality())
		for _, v := range x.Vals {
			if code := c.CodeOf(v.String()); code >= 0 {
				member[code] = 1
			}
		}
		return member, true
	case *minisql.Like:
		m := compileLikeMatcher(x.Pattern)
		member = make([]uint8, c.Cardinality())
		for code, s := range c.Dict() {
			if m(s) {
				member[code] = 1
			}
		}
		return member, true
	}
	return nil, false
}

func stringLeaf(c *dataset.Column, e minisql.Expr) rowPredicate {
	if code, neq, ok := stringEq(c, e); ok {
		if neq {
			return func(i int) bool { return c.Code(i) != code }
		}
		return func(i int) bool { return c.Code(i) == code }
	}
	if member, ok := stringMembers(c, e); ok {
		return func(i int) bool { return member[c.Code(i)] != 0 }
	}
	test := valueTest(e)
	return func(i int) bool { return test(c.Value(i)) }
}

// cellTest is a leaf predicate as a test of one numeric cell: num when the
// predicate reads the cell as the float64 Column.Float returns, val when it
// needs the cell's Value.
type cellTest struct {
	num func(float64) bool
	val func(dataset.Value) bool
}

// numericTest returns the test a leaf applies to the cells of a numeric
// column.
func numericTest(e minisql.Expr) cellTest {
	switch x := e.(type) {
	case *minisql.Compare:
		if x.Val.Kind != dataset.KindString {
			want, op := x.Val.Float(), x.Op
			return cellTest{num: func(f float64) bool { return cmpFloat(f, want, op) }}
		}
	case *minisql.In:
		want := make(map[float64]bool, len(x.Vals))
		for _, v := range x.Vals {
			want[v.Float()] = true
		}
		return cellTest{num: func(f float64) bool { return want[f] }}
	case *minisql.Between:
		lo, hi := x.Lo.Float(), x.Hi.Float()
		return cellTest{num: func(f float64) bool { return f >= lo && f <= hi }}
	}
	return cellTest{val: valueTest(e)}
}

// valueTest is the general form of a leaf: a test of the cell's Value.
func valueTest(e minisql.Expr) func(dataset.Value) bool {
	switch x := e.(type) {
	case *minisql.Compare:
		op, val := x.Op, x.Val
		return func(v dataset.Value) bool {
			cmp := v.Compare(val)
			switch op {
			case minisql.CmpEq:
				return cmp == 0 && v.Equal(val)
			case minisql.CmpNe:
				return !v.Equal(val)
			case minisql.CmpLt:
				return cmp < 0
			case minisql.CmpLe:
				return cmp <= 0
			case minisql.CmpGt:
				return cmp > 0
			case minisql.CmpGe:
				return cmp >= 0
			}
			return false
		}
	case *minisql.Between:
		lo, hi := x.Lo, x.Hi
		return func(v dataset.Value) bool { return v.Compare(lo) >= 0 && v.Compare(hi) <= 0 }
	case *minisql.Like:
		m := compileLikeMatcher(x.Pattern)
		return func(v dataset.Value) bool { return m(v.String()) }
	}
	// compileLeaf's callers pass the four leaf shapes, and numericTest and
	// stringLeaf take IN before it gets here.
	panic(fmt.Sprintf("engine: no value test for %T", e))
}

// over returns the test as a row predicate over a raw numeric column. It
// reads the column's array at each call, so it follows a scan job's segment
// as the job refills it.
func (t cellTest) over(c *dataset.Column) rowPredicate {
	if t.num == nil {
		return func(i int) bool { return t.val(c.Value(i)) }
	}
	if c.Field.Kind == dataset.KindFloat {
		return func(i int) bool { return t.num(c.Floats()[i]) }
	}
	return func(i int) bool { return t.num(float64(c.Ints()[i])) }
}

// members decides the test once per entry of a Coded integer column's value
// dictionary: member[code] is 1 where rows carrying the code match.
func (t cellTest) members(c *dataset.Column) []uint8 {
	member := make([]uint8, c.Cardinality())
	for code, v := range c.IntDict() {
		if t.num != nil && t.num(float64(v)) || t.num == nil && t.val(dataset.IV(v)) {
			member[code] = 1
		}
	}
	return member
}

func cmpFloat(a, b float64, op minisql.CmpOp) bool {
	switch op {
	case minisql.CmpEq:
		return a == b
	case minisql.CmpNe:
		return a != b
	case minisql.CmpLt:
		return a < b
	case minisql.CmpLe:
		return a <= b
	case minisql.CmpGt:
		return a > b
	case minisql.CmpGe:
		return a >= b
	}
	return false
}

// compileLikeMatcher builds a matcher for a SQL LIKE pattern, where %
// matches any run of characters and _ matches exactly one.
func compileLikeMatcher(pattern string) func(string) bool {
	// Split on % into literal/underscore segments, then greedy match.
	segs := strings.Split(pattern, "%")
	return func(s string) bool { return likeMatch(s, segs, len(segs) == 1) }
}

// likeMatch matches s against segments separated by % wildcards. exact means
// the pattern had no %, so the whole string must be consumed by segs[0].
func likeMatch(s string, segs []string, exact bool) bool {
	if exact {
		return matchSegment(s, segs[0]) && len(s) == len(segs[0])
	}
	// First segment is anchored at the start.
	first := segs[0]
	if len(s) < len(first) || !matchSegment(s[:len(first)], first) {
		return false
	}
	s = s[len(first):]
	// Last segment is anchored at the end.
	last := segs[len(segs)-1]
	if len(s) < len(last) || !matchSegment(s[len(s)-len(last):], last) {
		return false
	}
	rest := s[:len(s)-len(last)]
	// Middle segments float: find each in order.
	for _, seg := range segs[1 : len(segs)-1] {
		idx := findSegment(rest, seg)
		if idx < 0 {
			return false
		}
		rest = rest[idx+len(seg):]
	}
	return true
}

// matchSegment matches a pattern segment (literals and _) against an
// equal-length prefix of s.
func matchSegment(s, seg string) bool {
	if len(s) < len(seg) {
		return false
	}
	for i := 0; i < len(seg); i++ {
		if seg[i] != '_' && seg[i] != s[i] {
			return false
		}
	}
	return true
}

// findSegment returns the first index where seg matches within s, or -1.
func findSegment(s, seg string) int {
	if seg == "" {
		return 0
	}
	for i := 0; i+len(seg) <= len(s); i++ {
		if matchSegment(s[i:], seg) {
			return i
		}
	}
	return -1
}
