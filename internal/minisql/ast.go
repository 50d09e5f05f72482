package minisql

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
)

// AggFunc identifies the aggregate applied to a select item.
type AggFunc int

// Aggregate functions supported in SELECT items.
const (
	AggNone AggFunc = iota
	AggSum
	AggAvg
	AggCount
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return ""
}

// ParseAgg maps a ZQL agg('name') string to an AggFunc.
func ParseAgg(name string) (AggFunc, error) {
	switch strings.ToUpper(name) {
	case "SUM":
		return AggSum, nil
	case "AVG", "MEAN":
		return AggAvg, nil
	case "COUNT":
		return AggCount, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	}
	return AggNone, fmt.Errorf("minisql: unknown aggregate %q", name)
}

// SelectItem is one output column: a bare column, an aggregate over a column,
// or a binned column (BIN(col, width) floors col to multiples of width).
type SelectItem struct {
	Agg   AggFunc
	Col   string
	Bin   float64 // >0 means BIN(Col, Bin)
	Alias string
}

// OutName returns the result-column name for the item.
func (s SelectItem) OutName() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.exprSQL()
}

func (s SelectItem) exprSQL() string {
	inner := s.Col
	if s.Bin > 0 {
		inner = fmt.Sprintf("BIN(%s, %g)", s.Col, s.Bin)
	}
	if s.Agg != AggNone {
		return fmt.Sprintf("%s(%s)", s.Agg, inner)
	}
	return inner
}

// SQL renders the item as SQL text.
func (s SelectItem) SQL() string {
	if s.Alias != "" {
		return s.exprSQL() + " AS " + s.Alias
	}
	return s.exprSQL()
}

// GroupKey is one GROUP BY expression.
type GroupKey struct {
	Col string
	Bin float64
}

// SQL renders the key as SQL text.
func (g GroupKey) SQL() string {
	if g.Bin > 0 {
		return fmt.Sprintf("BIN(%s, %g)", g.Col, g.Bin)
	}
	return g.Col
}

// OrderItem is one ORDER BY term, referring to an output column name.
type OrderItem struct {
	Col  string
	Desc bool
}

// SQL renders the order term.
func (o OrderItem) SQL() string {
	if o.Desc {
		return o.Col + " DESC"
	}
	return o.Col
}

// CmpOp is a scalar comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling.
func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Expr is a boolean predicate over a row.
type Expr interface {
	// SQL renders the predicate as SQL text.
	SQL() string
	isExpr()
}

// And is an n-ary conjunction.
type And struct{ Args []Expr }

// Or is an n-ary disjunction.
type Or struct{ Args []Expr }

// Not negates its argument.
type Not struct{ Arg Expr }

// Compare is `Col op Val`.
type Compare struct {
	Col string
	Op  CmpOp
	Val dataset.Value
}

// In is `Col IN (v1, v2, ...)`.
type In struct {
	Col  string
	Vals []dataset.Value
}

// Like is `Col LIKE pattern` with % and _ wildcards.
type Like struct {
	Col     string
	Pattern string
}

// Between is `Col BETWEEN Lo AND Hi` (inclusive).
type Between struct {
	Col    string
	Lo, Hi dataset.Value
}

func (*And) isExpr()     {}
func (*Or) isExpr()      {}
func (*Not) isExpr()     {}
func (*Compare) isExpr() {}
func (*In) isExpr()      {}
func (*Like) isExpr()    {}
func (*Between) isExpr() {}

func quoteVal(v dataset.Value) string {
	var b strings.Builder
	writeVal(&b, v)
	return b.String()
}

// writeVal writes v as a SQL literal: a string quoted, its quotes doubled.
func writeVal(b *strings.Builder, v dataset.Value) {
	if v.Kind != dataset.KindString {
		b.WriteString(v.String())
		return
	}
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(v.S, "'", "''"))
	b.WriteByte('\'')
}

// SQL renders the conjunction.
func (e *And) SQL() string { return joinExprs(e.Args, " AND ") }

// SQL renders the disjunction.
func (e *Or) SQL() string { return joinExprs(e.Args, " OR ") }

func joinExprs(args []Expr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		s := a.SQL()
		switch a.(type) {
		case *And, *Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// SQL renders the negation.
func (e *Not) SQL() string { return "NOT (" + e.Arg.SQL() + ")" }

// SQL renders the comparison.
func (e *Compare) SQL() string {
	return fmt.Sprintf("%s %s %s", e.Col, e.Op, quoteVal(e.Val))
}

// SQL renders the IN list.
func (e *In) SQL() string {
	var b strings.Builder
	b.WriteString(e.Col)
	b.WriteString(" IN (")
	for i, v := range e.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		writeVal(&b, v)
	}
	b.WriteByte(')')
	return b.String()
}

// SQL renders the LIKE.
func (e *Like) SQL() string {
	return fmt.Sprintf("%s LIKE '%s'", e.Col, strings.ReplaceAll(e.Pattern, "'", "''"))
}

// SQL renders the BETWEEN.
func (e *Between) SQL() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", e.Col, quoteVal(e.Lo), quoteVal(e.Hi))
}

// Query is a parsed single-table SELECT.
type Query struct {
	Select  []SelectItem
	From    string
	Where   Expr // nil when absent
	GroupBy []GroupKey
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// SQL renders the query back to SQL text (canonical form).
func (q *Query) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s.SQL())
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.From)
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.SQL())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.SQL())
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// Columns returns every table column the query references, deduplicated, in
// first-reference order. Used by executors to validate against the schema.
func (q *Query) Columns() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, s := range q.Select {
		add(s.Col)
	}
	for _, g := range q.GroupBy {
		add(g.Col)
	}
	walkExpr(q.Where, func(c string) { add(c) })
	return out
}

func walkExpr(e Expr, fn func(col string)) {
	switch x := e.(type) {
	case nil:
	case *And:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *Or:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *Not:
		walkExpr(x.Arg, fn)
	case *Compare:
		fn(x.Col)
	case *In:
		fn(x.Col)
	case *Like:
		fn(x.Col)
	case *Between:
		fn(x.Col)
	}
}
