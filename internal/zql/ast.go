// Package zql implements ZQL, zenvisage's table-based visual query language
// (Chapter 3 of the paper). A ZQL query is a table whose rows each describe a
// collection of visualizations (the visual component) plus an optional
// Process task that sorts / filters / compares collections.
//
// The package parses a textual rendering of the paper's tables. Each query is
// a header line naming the columns, then one pipe-separated line per row:
//
//	NAME | X      | Y       | Z                  | CONSTRAINTS   | VIZ                 | PROCESS
//	*f1  | 'year' | 'sales' | v1 <- 'product'.*  | location='US' | bar.(y=agg('sum'))  |
//
// Recognized columns: NAME, X, Y, Z, Z2, Z3, ..., CONSTRAINTS, VIZ, PROCESS.
// Cells follow the grammar of the corresponding thesis column, with two
// ASCII conventions: `<-` is the thesis's left-arrow, `->` its order marker,
// and `_` the "bind to derived visual component" symbol.
package zql

import (
	"fmt"
	"strings"
)

// Query is a parsed ZQL table.
type Query struct {
	Rows []*Row
}

// Row is one line of a ZQL table.
type Row struct {
	Name        NameSpec
	X, Y        AxisSpec
	Z           []ZSpec // Z, Z2, Z3, ... in column order
	Constraints string  // raw SQL-style predicate text ("" = none)
	Viz         VizSpec
	Process     []ProcessDecl
	Line        int // 1-based line in the source for error reporting
}

// NameSpec is the Name column: a name variable, output/user-input flags, or a
// derived visual component expression.
type NameSpec struct {
	Var       string // f1 ("" only for rows with no name)
	Output    bool   // *f1
	UserInput bool   // -f1: the visualization is provided by the user
	Expr      *NameExpr
}

// NameExprKind enumerates derived visual component operations (Section 3.6).
type NameExprKind int

// Derived-name operations.
const (
	NamePlus      NameExprKind = iota // f3=f1+f2 (concatenation)
	NameMinus                         // f3=f1-f2 (list difference)
	NameIntersect                     // f3=f1^f2
	NameIndex                         // f2=f1[i]
	NameSlice                         // f2=f1[i:j]
	NameRange                         // f2=f1.range (dedup)
	NameOrder                         // f2=f1.order (reorder by -> variables)
	NameAlias                         // f2=f1
)

// NameExpr is the right-hand side of a derived Name column entry.
type NameExpr struct {
	Kind        NameExprKind
	Left, Right string // operand name variables
	I, J        int    // for NameIndex / NameSlice (1-based, J=-1 for open)
}

// AxisKind enumerates X/Y cell forms.
type AxisKind int

// Axis cell forms.
const (
	AxisEmpty   AxisKind = iota
	AxisLiteral          // 'year'
	AxisVarDecl          // y1 <- {'sales','profit'} or y1 <- _ (derived)
	AxisVarRef           // y1
	AxisSum              // 'profit' + 'sales' (point-wise composition)
	AxisCross            // 'product' x (x1 in {...}) (Polaris ×, / treated alike)
)

// AxisSpec is an X or Y cell.
type AxisSpec struct {
	Kind  AxisKind
	Attr  string   // AxisLiteral
	Var   string   // AxisVarDecl / AxisVarRef
	Set   *SetExpr // AxisVarDecl; nil means bind to the derived component
	Parts []AxisPart
	Order bool // trailing -> (axis participates in f.order reordering)
}

// AxisPart is one term of an AxisSum or AxisCross composition.
type AxisPart struct {
	Kind AxisKind // AxisLiteral, AxisVarDecl or AxisVarRef
	Attr string
	Var  string
	Set  *SetExpr
}

// ZKind enumerates Z cell forms.
type ZKind int

// Z cell forms.
const (
	ZEmpty   ZKind = iota
	ZFixed         // 'product'.'chair'
	ZValues        // v1 <- 'product'.<value set>
	ZPairs         // z1.v1 <- <attr set>.<value set> or union of pair sets
	ZVarRef        // v1 (reuse a declared variable)
	ZSetExpr       // v4 <- (v2.range & v3.range)
)

// ZSpec is a Z (or Z2, Z3...) cell.
type ZSpec struct {
	Kind    ZKind
	Attr    string   // ZFixed / ZValues: the fixed attribute name
	Value   string   // ZFixed: the fixed attribute value
	AttrVar string   // ZPairs: variable over attributes (z1)
	Var     string   // declared or referenced value variable (v1)
	AttrSet *SetExpr // ZPairs: the attribute set
	ValSet  *SetExpr // ZValues / ZPairs: the value set; nil = derived binding
	Set     *SetExpr // ZSetExpr: a set expression over .range values
	Order   bool     // trailing ->
}

// SetOp is a set algebra operator.
type SetOp int

// Set operators: | union, \ difference, & intersection (Section 3.7).
const (
	SetUnion SetOp = iota
	SetDiff
	SetIntersect
)

// SetExpr is a set-valued expression tree.
type SetExpr struct {
	// Exactly one of the following shapes:
	Op          *SetOp   // binary node: Left Op Right
	Left, Right *SetExpr // binary node operands
	Literals    []string // {'a','b'} literal set
	Star        bool     // *
	RangeVar    string   // v2.range
	Derived     bool     // _ : values appearing in the derived component
	Pair        *ZPair   // attr-set . value-set leaf (used in Z cells)
}

// ZPair is an attribute-set/value-set pair leaf inside Z set expressions.
type ZPair struct {
	Attr *SetExpr
	Val  *SetExpr
}

// VizSpec is the Viz column.
type VizSpec struct {
	Kind VizKind
	Var  string   // declared iterator, "" if none
	Defs []VizDef // the candidate visualization settings (≥1 when non-empty)
}

// VizKind enumerates Viz cell forms.
type VizKind int

// Viz cell forms.
const (
	VizEmpty   VizKind = iota
	VizSingle          // bar.(y=agg('sum'))
	VizVarDecl         // t1 <- {bar, dotplot}.(...) or s1 <- bar.{(...), (...)}
)

// VizDef is a concrete visualization type plus summarization.
type VizDef struct {
	Type string  // bar, line, scatterplot, dotplot, boxplot...
	XBin float64 // x=bin(w), 0 if absent
	YAgg string  // y=agg('sum'), "" if absent
}

// String renders a VizDef in ZQL syntax.
func (v VizDef) String() string {
	var parts []string
	if v.XBin > 0 {
		parts = append(parts, fmt.Sprintf("x=bin(%g)", v.XBin))
	}
	if v.YAgg != "" {
		parts = append(parts, fmt.Sprintf("y=agg('%s')", v.YAgg))
	}
	if len(parts) == 0 {
		return v.Type
	}
	return v.Type + ".(" + strings.Join(parts, ", ") + ")"
}

// Mechanism is the optimizer kind of a process declaration.
type Mechanism int

// Process mechanisms (Section 3.8).
const (
	MechArgmin Mechanism = iota
	MechArgmax
	MechArgany
	MechR // R(k, vars, f): k-representative selection
)

// FilterKind distinguishes top-k from threshold filtering.
type FilterKind int

// Filter kinds for argmin/argmax/argany.
const (
	FilterNone FilterKind = iota // sort only
	FilterK                      // [k = n] or [k = inf]
	FilterT                      // [t > 0], [t < 0], ...
)

// ProcessDecl is one `outvars <- mechanism` declaration of a Process cell.
type ProcessDecl struct {
	OutVars []string
	Mech    Mechanism

	// argmin/argmax/argany fields:
	LoopVars []string
	Filter   FilterKind
	K        int    // -1 for inf
	TOp      string // ">", "<", ">=", "<=" for FilterT
	TVal     float64
	Inner    []InnerAgg // nested min/max/sum over further variables
	Expr     *ObjExpr

	// R fields:
	RK    int
	RVars []string
	RName string // the name variable argument
}

// InnerAgg is a nested aggregation level like min(v2) or sum(x2,y2).
type InnerAgg struct {
	Fn   string // "min", "max", "sum"
	Vars []string
}

// ObjExprKind is the objective function kind.
type ObjExprKind int

// Objective functions.
const (
	ObjT ObjExprKind = iota // T(f): trend
	ObjD                    // D(f1, f2): distance
	ObjU                    // U(name, f...): user-defined function
)

// ObjExpr is the objective function of a process task.
type ObjExpr struct {
	Kind ObjExprKind
	F1   string // name variable
	F2   string // second name variable for D
	User string // user-defined function name for ObjU
	Args []string
}
