package zexec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zql"
)

// rowState tracks one row through the execution pipeline.
type rowState struct {
	row  *zql.Row
	dims []dimension // resolved iteration dimensions, column order
	// orderMarkers lists bindings referenced with `->` for f.order rows.
	orderMarkers []*binding
	fetched      bool // the row's collection exists
	processed    bool // the row's tasks have run
	coll         *Collection
}

// executor carries the shared execution state.
type executor struct {
	q    *zql.Query
	db   engine.DB
	opts Options
	ctx  context.Context // bounds the run; never nil (RunContext defaults it)

	table    *dataset.Table
	rows     []*rowState
	bindings map[string]*binding  // axis variable -> ordered elements
	groups   map[string]*varGroup // variable -> lockstep group
	colls    map[string]*Collection
	fetched  fetched // visualizations fetched so far, when rows may reuse them (reuse.go)
	sqlLog   []string
	stats    Stats
	proc     processCounters // process-phase work; atomic: workers share it
}

// varDefined reports whether an axis variable has a binding yet.
func (ex *executor) varDefined(name string) bool {
	_, ok := ex.bindings[name]
	return ok
}

// refsOfSet lists axis variables a set expression depends on (.range refs).
func refsOfSet(s *zql.SetExpr, out *[]string) {
	if s == nil {
		return
	}
	if s.RangeVar != "" {
		*out = append(*out, s.RangeVar)
	}
	if s.Pair != nil {
		refsOfSet(s.Pair.Attr, out)
		refsOfSet(s.Pair.Val, out)
	}
	refsOfSet(s.Left, out)
	refsOfSet(s.Right, out)
}

// rowVarRefs lists every axis variable a row needs defined before its
// dimensions can be resolved, plus whether it needs a derived collection.
func rowVarRefs(r *zql.Row) []string {
	var refs []string
	axis := func(a zql.AxisSpec) {
		switch a.Kind {
		case zql.AxisVarRef:
			refs = append(refs, a.Var)
		case zql.AxisVarDecl:
			refsOfSet(a.Set, &refs)
		case zql.AxisSum, zql.AxisCross:
			for _, p := range a.Parts {
				if p.Kind == zql.AxisVarRef {
					refs = append(refs, p.Var)
				} else if p.Kind == zql.AxisVarDecl {
					refsOfSet(p.Set, &refs)
				}
			}
		}
	}
	axis(r.X)
	axis(r.Y)
	for _, z := range r.Z {
		switch z.Kind {
		case zql.ZVarRef:
			refs = append(refs, z.Var)
		case zql.ZValues:
			refsOfSet(z.ValSet, &refs)
		case zql.ZPairs, zql.ZSetExpr:
			refsOfSet(z.Set, &refs)
		}
	}
	refs = append(refs, constraintRangeRefs(r.Constraints)...)
	return refs
}

// constraintRangeRefs finds `IN (v.range)` references inside a raw
// constraints string.
func constraintRangeRefs(c string) []string {
	var out []string
	rest := c
	for {
		i := strings.Index(rest, ".range")
		if i < 0 {
			return out
		}
		j := i
		for j > 0 && (isIdentChar(rest[j-1])) {
			j--
		}
		if j < i {
			out = append(out, rest[j:i])
		}
		rest = rest[i+len(".range"):]
	}
}

func isIdentChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// expandConstraints rewrites `attr IN (v.range)` into a literal IN list from
// the variable's binding.
func (ex *executor) expandConstraints(c string) (string, error) {
	for _, ref := range constraintRangeRefs(c) {
		b, ok := ex.bindings[ref]
		if !ok {
			return "", fmt.Errorf("constraints reference undefined variable %s", ref)
		}
		var vals []string
		for _, e := range b.elems {
			vals = append(vals, "'"+strings.ReplaceAll(e.val, "'", "''")+"'")
		}
		if len(vals) == 0 {
			vals = []string{"''"}
		}
		c = strings.ReplaceAll(c, "("+ref+".range)", "("+strings.Join(vals, ", ")+")")
		c = strings.ReplaceAll(c, "( "+ref+".range )", "("+strings.Join(vals, ", ")+")")
	}
	return c, nil
}

// evalSet evaluates a set expression into ordered elements. kind tells how
// leaves are interpreted; attrCtx carries the enclosing attribute for Z value
// sets; derived supplies the derived collection for `_` leaves.
func (ex *executor) evalSet(s *zql.SetExpr, kind elemKind, attrCtx string, derived *Collection) ([]element, error) {
	if s == nil {
		return nil, fmt.Errorf("nil set expression")
	}
	switch {
	case s.Op != nil:
		left, err := ex.evalSet(s.Left, kind, attrCtx, derived)
		if err != nil {
			return nil, err
		}
		right, err := ex.evalSet(s.Right, kind, attrCtx, derived)
		if err != nil {
			return nil, err
		}
		return applySetOp(*s.Op, left, right), nil
	case s.Pair != nil:
		// Cartesian product of attribute set × value set, attribute-major,
		// with the value set evaluated per attribute (so '*' means "all
		// values of that attribute").
		attrs, err := ex.evalSet(s.Pair.Attr, elemZ, "", derived)
		if err != nil {
			return nil, err
		}
		var out []element
		for _, a := range attrs {
			attrName := a.val
			if attrName == "" {
				attrName = a.attr
			}
			vals, err := ex.evalSet(s.Pair.Val, elemZ, attrName, derived)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				out = append(out, element{kind: elemZ, attr: attrName, val: v.val})
			}
		}
		return out, nil
	case s.Star:
		return ex.starElements(kind, attrCtx)
	case len(s.Literals) > 0:
		out := make([]element, len(s.Literals))
		for i, lit := range s.Literals {
			out[i] = element{kind: kind, attr: attrCtx, val: lit}
		}
		return out, nil
	case s.RangeVar != "":
		b, ok := ex.bindings[s.RangeVar]
		if !ok {
			return nil, fmt.Errorf("%s.range references undefined variable", s.RangeVar)
		}
		return append([]element(nil), b.elems...), nil
	case s.Derived:
		if derived == nil {
			return nil, fmt.Errorf("'_' used outside a derived visual component row")
		}
		return derived.derivedElements(kind, attrCtx), nil
	}
	return nil, fmt.Errorf("empty set expression")
}

// starElements expands `*`: all attributes (for attribute positions) or all
// values of the context attribute (for value positions). Value enumeration
// reads the column's full data; a lazily-backed column (zpack) signals a
// failed materialization by panicking, which is recovered here into a query
// error rather than an incomplete value set.
func (ex *executor) starElements(kind elemKind, attrCtx string) (out []element, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("enumerating values of %q: %v", attrCtx, r)
		}
	}()
	return ex.starElementsInner(kind, attrCtx)
}

func (ex *executor) starElementsInner(kind elemKind, attrCtx string) ([]element, error) {
	if kind != elemZ || attrCtx == "" {
		// Attribute star: every column of the table.
		var out []element
		for _, name := range ex.table.ColumnNames() {
			out = append(out, element{kind: kind, val: name})
		}
		return out, nil
	}
	col := ex.table.Column(attrCtx)
	if col == nil {
		return nil, fmt.Errorf("table %q has no attribute %q", ex.table.Name, attrCtx)
	}
	vals := col.DistinctSorted()
	out := make([]element, len(vals))
	for i, v := range vals {
		out[i] = element{kind: elemZ, attr: attrCtx, val: v.String()}
	}
	return out, nil
}

func applySetOp(op zql.SetOp, left, right []element) []element {
	rightKeys := make(map[string]bool, len(right))
	for _, e := range right {
		rightKeys[e.key()] = true
	}
	var out []element
	switch op {
	case zql.SetUnion:
		seen := make(map[string]bool, len(left))
		for _, e := range left {
			seen[e.key()] = true
			out = append(out, e)
		}
		for _, e := range right {
			if !seen[e.key()] {
				out = append(out, e)
			}
		}
	case zql.SetDiff:
		for _, e := range left {
			if !rightKeys[e.key()] {
				out = append(out, e)
			}
		}
	case zql.SetIntersect:
		for _, e := range left {
			if rightKeys[e.key()] {
				out = append(out, e)
			}
		}
	}
	return out
}

// resolveRow computes the row's dimensions. derived is the collection the
// row's Name expression produced (nil for ordinary rows). It errors if a
// referenced variable is not yet defined — callers check readiness first.
func (ex *executor) resolveRow(rs *rowState, derived *Collection) error {
	r := rs.row
	rs.dims = rs.dims[:0]
	rs.orderMarkers = rs.orderMarkers[:0]

	addAxis := func(a zql.AxisSpec, kind elemKind) error {
		dim, marker, err := ex.resolveAxis(a, kind, derived)
		if err != nil {
			return err
		}
		if marker != nil {
			rs.orderMarkers = append(rs.orderMarkers, marker)
			return nil
		}
		if dim != nil {
			rs.dims = append(rs.dims, *dim)
		}
		return nil
	}
	if err := addAxis(r.X, elemX); err != nil {
		return err
	}
	if err := addAxis(r.Y, elemY); err != nil {
		return err
	}
	for _, z := range r.Z {
		dim, marker, err := ex.resolveZ(z, derived)
		if err != nil {
			return err
		}
		if marker != nil {
			rs.orderMarkers = append(rs.orderMarkers, marker)
			continue
		}
		if dim != nil {
			rs.dims = append(rs.dims, *dim)
		}
	}
	if dim := ex.resolveViz(r.Viz); dim != nil {
		rs.dims = append(rs.dims, *dim)
	}
	return nil
}

func (ex *executor) resolveAxis(a zql.AxisSpec, kind elemKind, derived *Collection) (*dimension, *binding, error) {
	switch a.Kind {
	case zql.AxisEmpty:
		return nil, nil, nil
	case zql.AxisLiteral:
		e := element{kind: kind, val: a.Attr}
		return &dimension{elems: [][]element{{e}}}, nil, nil
	case zql.AxisVarRef:
		b, ok := ex.bindings[a.Var]
		if !ok {
			return nil, nil, fmt.Errorf("axis variable %s is not defined", a.Var)
		}
		if a.Order {
			return nil, b, nil
		}
		return ex.dimFromBinding(a.Var, b), nil, nil
	case zql.AxisVarDecl:
		var elems []element
		var err error
		if a.Set == nil {
			if derived == nil {
				return nil, nil, fmt.Errorf("%s <- _ outside a derived row", a.Var)
			}
			elems = derived.derivedElements(kind, "")
		} else {
			elems, err = ex.evalSet(a.Set, kind, "", derived)
			if err != nil {
				return nil, nil, err
			}
		}
		// Re-stamp the kind: sets of attribute names are kind-agnostic.
		for i := range elems {
			elems[i].kind = kind
			if elems[i].val == "" {
				elems[i].val = elems[i].attr
				elems[i].attr = ""
			}
		}
		ex.bindings[a.Var] = &binding{elems: elems}
		return &dimension{vars: []string{a.Var}, elems: singletons(elems)}, nil, nil
	case zql.AxisSum, zql.AxisCross:
		return ex.resolveCompositeAxis(a, kind, derived)
	}
	return nil, nil, fmt.Errorf("unhandled axis kind %v", a.Kind)
}

// resolveCompositeAxis handles 'a' + 'b' and 'a' × (x1 in {...}) axes. The
// composed attribute for each combination is rendered "a+b" or "a×b"; the
// fetch layer decodes it.
func (ex *executor) resolveCompositeAxis(a zql.AxisSpec, kind elemKind, derived *Collection) (*dimension, *binding, error) {
	sep := "+"
	if a.Kind == zql.AxisCross {
		sep = "×"
	}
	// Each part yields an ordered list of attribute names; the axis iterates
	// their Cartesian product (left-major), composing names with sep.
	lists := make([][]element, len(a.Parts))
	var declVars []string
	for i, p := range a.Parts {
		switch p.Kind {
		case zql.AxisLiteral:
			lists[i] = []element{{kind: kind, val: p.Attr}}
		case zql.AxisVarRef:
			b, ok := ex.bindings[p.Var]
			if !ok {
				return nil, nil, fmt.Errorf("axis variable %s is not defined", p.Var)
			}
			lists[i] = b.elems
		case zql.AxisVarDecl:
			elems, err := ex.evalSet(p.Set, kind, "", derived)
			if err != nil {
				return nil, nil, err
			}
			for j := range elems {
				elems[j].kind = kind
			}
			ex.bindings[p.Var] = &binding{elems: elems}
			lists[i] = elems
			declVars = append(declVars, p.Var)
		}
	}
	combos := [][]element{{}}
	for _, list := range lists {
		var next [][]element
		for _, c := range combos {
			for _, e := range list {
				next = append(next, append(append([]element(nil), c...), e))
			}
		}
		combos = next
	}
	tuples := make([][]element, len(combos))
	for i, c := range combos {
		parts := make([]string, len(c))
		for j, e := range c {
			parts[j] = e.val
		}
		composed := element{kind: kind, val: strings.Join(parts, sep)}
		tuples[i] = []element{composed}
	}
	// The composite axis acts as an anonymous dimension unless exactly one
	// variable was declared, in which case that variable tracks its part.
	if len(declVars) == 1 {
		// Bind the declared variable to its own part values but iterate the
		// composite; lookups use the composed attribute.
		return &dimension{vars: []string{""}, elems: tuples}, nil, nil
	}
	return &dimension{vars: []string{""}, elems: tuples}, nil, nil
}

func (ex *executor) resolveZ(z zql.ZSpec, derived *Collection) (*dimension, *binding, error) {
	switch z.Kind {
	case zql.ZEmpty:
		return nil, nil, nil
	case zql.ZFixed:
		e := element{kind: elemZ, attr: z.Attr, val: z.Value}
		return &dimension{elems: [][]element{{e}}}, nil, nil
	case zql.ZVarRef:
		b, ok := ex.bindings[z.Var]
		if !ok {
			return nil, nil, fmt.Errorf("Z variable %s is not defined", z.Var)
		}
		if z.Order {
			return nil, b, nil
		}
		return ex.dimFromBinding(z.Var, b), nil, nil
	case zql.ZValues:
		elems, err := ex.evalSet(z.ValSet, elemZ, z.Attr, derived)
		if err != nil {
			return nil, nil, err
		}
		for i := range elems {
			elems[i].kind = elemZ
			if elems[i].attr == "" {
				elems[i].attr = z.Attr
			}
		}
		if z.Var != "" {
			ex.bindings[z.Var] = &binding{elems: elems}
		}
		var vars []string
		if z.Var != "" {
			vars = []string{z.Var}
		}
		return &dimension{vars: vars, elems: singletons(elems)}, nil, nil
	case zql.ZPairs:
		elems, err := ex.evalSet(z.Set, elemZ, "", derived)
		if err != nil {
			return nil, nil, err
		}
		// Two lockstep variables: attribute and value.
		attrB := &binding{}
		valB := &binding{}
		tuples := make([][]element, len(elems))
		for i, e := range elems {
			ae := element{kind: elemZ, attr: e.attr, val: e.attr}
			attrB.elems = append(attrB.elems, ae)
			valB.elems = append(valB.elems, e)
			tuples[i] = []element{ae, e}
		}
		ex.bindings[z.AttrVar] = attrB
		ex.bindings[z.Var] = valB
		ex.groups[z.AttrVar] = &varGroup{vars: []string{z.AttrVar, z.Var}, tuples: tuples}
		ex.groups[z.Var] = ex.groups[z.AttrVar]
		return &dimension{vars: []string{z.AttrVar, z.Var}, elems: tuples}, nil, nil
	case zql.ZSetExpr:
		elems, err := ex.evalSet(z.Set, elemZ, "", derived)
		if err != nil {
			return nil, nil, err
		}
		if z.Var != "" {
			ex.bindings[z.Var] = &binding{elems: elems}
		}
		var vars []string
		if z.Var != "" {
			vars = []string{z.Var}
		}
		return &dimension{vars: vars, elems: singletons(elems)}, nil, nil
	}
	return nil, nil, fmt.Errorf("unhandled Z kind %v", z.Kind)
}

func (ex *executor) dimFromBinding(name string, b *binding) *dimension {
	// A lockstep group reference iterates the whole group together.
	if g, ok := ex.groups[name]; ok {
		return &dimension{vars: g.vars, elems: g.tuples, ref: true}
	}
	return &dimension{vars: []string{name}, elems: singletons(b.elems), ref: true}
}

func (ex *executor) resolveViz(v zql.VizSpec) *dimension {
	switch v.Kind {
	case zql.VizEmpty:
		return nil
	case zql.VizSingle:
		d := v.Defs[0]
		e := element{kind: elemViz, viz: &d}
		return &dimension{elems: [][]element{{e}}}
	case zql.VizVarDecl:
		elems := make([]element, len(v.Defs))
		for i := range v.Defs {
			d := v.Defs[i]
			elems[i] = element{kind: elemViz, viz: &d}
		}
		ex.bindings[v.Var] = &binding{elems: elems}
		return &dimension{vars: []string{v.Var}, elems: singletons(elems)}
	}
	return nil
}

// sortedVarNames is a test helper exported via Bindings.
func sortedVarNames(m map[string]*binding) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
