package engine

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/minisql"
)

// Skip provenance: every time a zone map or dictionary bitset proves a
// (plan, segment) pair empty, the column store attributes the skip to the
// predicate conjunct that proved it — which column, and via which metadata
// kind. The per-column skip rates this produces are exactly the signal a
// future compactor needs to pick re-cluster columns (ROADMAP item 2), and
// the serving layer exports them on /stats and /metrics.

// A SkipAttr identifies the metadata that proved a segment empty: the column
// the proving conjunct constrains, and the mechanism.
type SkipAttr struct {
	// Column is the conjunct's column name, or "(multi)" for a composite
	// conjunct constraining several columns.
	Column string
	// Via is "dict" (categorical dictionary-code presence bitset), "zonemap"
	// (numeric min/max zones), "const" (a constant-false predicate), or
	// "expr" (a composite AND/OR proof over several legs).
	Via string
}

// skipProv is the store-level accumulator. Scan workers batch attributions
// in a worker-local map and fold them in once per scan, so the hot loop
// never takes this mutex per segment.
type skipProv struct {
	mu sync.Mutex
	m  map[SkipAttr]int64
}

func (p *skipProv) addAll(local map[SkipAttr]int64) {
	if len(local) == 0 {
		return
	}
	p.mu.Lock()
	if p.m == nil {
		p.m = make(map[SkipAttr]int64)
	}
	for a, n := range local {
		p.m[a] += n
	}
	p.mu.Unlock()
}

func (p *skipProv) snapshot() map[SkipAttr]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[SkipAttr]int64, len(p.m))
	for a, n := range p.m {
		out[a] = n
	}
	return out
}

// SortedSkipAttrs returns the map's keys ordered by count descending, then
// column/via ascending — the stable order /stats and /metrics emit.
func SortedSkipAttrs(m map[SkipAttr]int64) []SkipAttr {
	attrs := make([]SkipAttr, 0, len(m))
	for a := range m {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool {
		if m[attrs[i]] != m[attrs[j]] {
			return m[attrs[i]] > m[attrs[j]]
		}
		if attrs[i].Column != attrs[j].Column {
			return attrs[i].Column < attrs[j].Column
		}
		return attrs[i].Via < attrs[j].Via
	})
	return attrs
}

// ColumnSkipTotals folds a skip-provenance map to per-column totals,
// dropping the synthetic "(multi)" and "(none)" buckets that don't name a
// real column — the ranking signal the compactor's key chooser consumes.
func ColumnSkipTotals(m map[SkipAttr]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for a, n := range m {
		if a.Column == "(multi)" || a.Column == "(none)" {
			continue
		}
		out[a.Column] += n
	}
	return out
}

// exprColumns collects the distinct column names an expression constrains,
// in first-seen order.
func exprColumns(e minisql.Expr, into []string) []string {
	add := func(col string) []string {
		if slices.Contains(into, col) {
			return into
		}
		return append(into, col)
	}
	switch x := e.(type) {
	case *minisql.Compare:
		into = add(x.Col)
	case *minisql.In:
		into = add(x.Col)
	case *minisql.Like:
		into = add(x.Col)
	case *minisql.Between:
		into = add(x.Col)
	case *minisql.And:
		for _, a := range x.Args {
			into = exprColumns(a, into)
		}
	case *minisql.Or:
		for _, a := range x.Args {
			into = exprColumns(a, into)
		}
	case *minisql.Not:
		into = exprColumns(x.Arg, into)
	}
	return into
}

// conjAttr computes the skip attribution of one compiled conjunct: the
// column set comes from the expression, the mechanism from the compiled
// filter's shape.
func conjAttr(e minisql.Expr, f vecFilter) SkipAttr {
	a := SkipAttr{Column: "(multi)"}
	switch cols := exprColumns(e, nil); len(cols) {
	case 0:
		a.Column = "(none)"
	case 1:
		a.Column = cols[0]
	}
	switch f := f.(type) {
	case *codeFilter:
		a.Via = f.via
	case *numRangeFilter, *numNeFilter, *numSetFilter:
		a.Via = "zonemap"
	case constFilter, *constFilter:
		// compileVec folds predicates over values the dictionary never saw
		// (and empty IN lists) to a by-value constFilter.
		a.Via = "const"
	case *andFilter, *orFilter:
		a.Via = "expr"
	default:
		// predFilter and notFilter never skip; attribute defensively.
		a.Via = "none"
	}
	return a
}
