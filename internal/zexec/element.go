package zexec

import (
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/vis"
	"repro/internal/zql"
)

// zqlQuery keeps the alias local so zexec.go can re-export it.
type zqlQuery = zql.Query

// elemKind records which column an element came from, which drives how
// lookups fall back to matching visualization structure when a variable name
// is absent from a combo.
type elemKind int

const (
	elemX elemKind = iota
	elemY
	elemZ
	elemViz
)

// element is one value of an ordered variable binding: an attribute name for
// axis variables, an (attribute, value) pair for Z variables, or a
// visualization definition for Viz variables.
type element struct {
	kind elemKind
	attr string      // Z: the attribute
	val  string      // Z: the value; X/Y: the attribute name
	viz  *zql.VizDef // Viz variables only
}

// key returns a comparable identity for set algebra.
func (e element) key() string {
	if e.viz != nil {
		return "viz:" + e.viz.String()
	}
	return e.attr + "\x00" + e.val
}

// equal reports whether two elements have the same key, without building it.
func (e element) equal(o element) bool {
	if e.viz != nil || o.viz != nil {
		return e.viz != nil && o.viz != nil && e.viz.String() == o.viz.String()
	}
	return e.attr == o.attr && e.val == o.val
}

// hash mixes the element's identity into h; equal elements hash alike.
func (e element) hash(h uint64) uint64 {
	mix := func(h uint64, s string) uint64 { return h*0x9e3779b97f4a7c15 ^ maphash.String(findSeed, s) }
	if e.viz != nil {
		return mix(h, e.viz.Type)
	}
	return mix(mix(h, e.attr), e.val)
}

var findSeed = maphash.MakeSeed()

// display renders the element for Result.Bindings.
func (e element) display() string {
	if e.viz != nil {
		return e.viz.String()
	}
	if e.kind == elemZ {
		return e.val
	}
	return e.val
}

// binding is the ordered element list a variable iterates over.
type binding struct {
	elems []element
}

// group of variables declared together iterate in lockstep; tuples[i] holds
// the i-th element of every variable in the group.
type varGroup struct {
	vars   []string
	tuples [][]element // tuples[i][j] = value of vars[j] at position i
}

// dimension is one iteration axis of a row's visual component.
type dimension struct {
	vars  []string    // 0 (anonymous set), 1, or 2 (z-pair) variables
	elems [][]element // elems[i] is the tuple for position i (len == len(vars), or 1 for anonymous)
	ref   bool        // true when this dimension reuses an existing binding
}

// Collection is the materialized visual component of a row: an ordered list
// of visualizations plus, for each, the variable assignment that produced it.
type Collection struct {
	Vis    []*vis.Visualization
	combos []map[string]element
	// wildcard marks user-drawn collections, which compare against every
	// loop assignment (the -f1 rows of Tables 2.2, 3.14, 3.21).
	wildcard bool

	// Lazily computed matching metadata (see ensureMeta). Guarded by a
	// sync.Once because parallel process workers call find concurrently.
	metaOnce      sync.Once
	comboVars     map[string]bool
	iteratedAttrs map[string]bool
	iteratedKinds map[elemKind]bool
	// The find index, for uniform collections (every combo assigns exactly
	// the variables of comboVars, and there is at least one): the hash of a
	// combo's elements, taken in indexVars order, to the ascending positions
	// of the visualizations carrying them. nil otherwise.
	indexVars []string
	lookup    map[uint64][]int32
}

// ensureMeta computes which variables and slots the collection iterates, and
// the find index over them. Combos are immutable after construction, so this
// runs once; concurrent callers block until the maps are published.
func (c *Collection) ensureMeta() {
	c.metaOnce.Do(func() {
		c.comboVars = make(map[string]bool)
		c.iteratedAttrs = make(map[string]bool)
		c.iteratedKinds = make(map[elemKind]bool)
		for _, combo := range c.combos {
			for name, e := range combo {
				c.comboVars[name] = true
				if e.kind == elemZ {
					c.iteratedAttrs[e.attr] = true
				} else {
					c.iteratedKinds[e.kind] = true
				}
			}
		}
		if len(c.comboVars) == 0 {
			return
		}
		for _, combo := range c.combos {
			if len(combo) != len(c.comboVars) {
				return // not uniform: find scans
			}
		}
		for name := range c.comboVars {
			c.indexVars = append(c.indexVars, name)
		}
		sort.Strings(c.indexVars)
		c.lookup = make(map[uint64][]int32, len(c.combos))
		for i, combo := range c.combos {
			h, _ := c.probe(combo)
			c.lookup[h] = append(c.lookup[h], int32(i))
		}
	})
}

// probe hashes the assignment's elements for the collection's iterated
// variables; ok is false when the assignment leaves one of them out.
func (c *Collection) probe(assign map[string]element) (h uint64, ok bool) {
	for _, name := range c.indexVars {
		e, ok := assign[name]
		if !ok {
			return 0, false
		}
		h = e.hash(h)
	}
	return h, true
}

// sameSlot reports whether two elements constrain the same aspect of a
// visualization: the same Z attribute, or the same axis position.
func sameSlot(a, b element) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == elemZ {
		return a.attr == b.attr
	}
	return true
}

// iteratesSlot reports whether the collection varies over the element's slot.
func (c *Collection) iteratesSlot(e element) bool {
	if e.kind == elemZ {
		return c.iteratedAttrs[e.attr]
	}
	return c.iteratedKinds[e.kind]
}

// Len returns the number of visualizations.
func (c *Collection) Len() int { return len(c.Vis) }

// Combos exposes variable assignments for testing and rendering.
func (c *Collection) Combos() []map[string]string {
	out := make([]map[string]string, len(c.combos))
	for i, cb := range c.combos {
		m := make(map[string]string, len(cb))
		for k, e := range cb {
			m[k] = e.display()
		}
		out[i] = m
	}
	return out
}

// matches reports whether visualization i of the collection is consistent
// with the given assignment. A variable constrains the collection only when
// the collection iterates it:
//
//  1. variables present in the visualization's combo must agree by name;
//  2. a variable absent from the combos is skipped when another assignment
//     variable covering the same slot is combo-matched (e.g. Table 3.24's v3
//     must not constrain the collection keyed by v2, even though both range
//     over products);
//  3. otherwise, if the collection iterates the variable's slot, the element
//     must structurally match the visualization (slice for Z, axis attribute
//     for X/Y) — this is how derived components like f3 = f1 + f2 are looked
//     up under freshly declared variables (Table 3.16);
//  4. variables over slots the collection never varies are unconstrained —
//     a fixed 'product'.'stapler' row matches every product assignment
//     (Table 3.13).
func (c *Collection) matches(i int, assign map[string]element) bool {
	if c.wildcard {
		return true
	}
	c.ensureMeta()
	combo := c.combos[i]
	v := c.Vis[i]
	for name, want := range assign {
		if got, ok := combo[name]; ok {
			if !got.equal(want) {
				return false
			}
			continue
		}
		if c.comboVars[name] {
			// Iterated by name elsewhere in the collection but absent from
			// this combo: cannot match.
			return false
		}
		covered := false
		for other, oe := range assign {
			if other != name && c.comboVars[other] && sameSlot(oe, want) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		if !c.iteratesSlot(want) {
			continue
		}
		if !structuralMatch(v, want) {
			return false
		}
	}
	return true
}

// structuralMatch tests an element against the visualization's shape.
func structuralMatch(v *vis.Visualization, want element) bool {
	switch want.kind {
	case elemZ:
		for _, s := range v.Slices {
			if s.Attr == want.attr && s.Value == want.val {
				return true
			}
		}
		return false
	case elemX:
		return v.XAttr == want.val
	case elemY:
		return v.YAttr == want.val
	case elemViz:
		return want.viz == nil || v.VizType == want.viz.Type
	}
	return false
}

// find returns the first visualization consistent with the assignment, or
// nil. A single-visualization collection with an empty combo (user input,
// fixed rows) matches any assignment.
//
// When the assignment names every variable a uniform collection iterates,
// rule 1 of matches admits only the visualizations whose combo carries the
// same elements, so only those — found by hash, in ascending order — are
// tested; every other case scans.
func (c *Collection) find(assign map[string]element) *vis.Visualization {
	c.ensureMeta()
	if c.lookup != nil {
		if h, ok := c.probe(assign); ok {
			for _, i := range c.lookup[h] {
				if c.matches(int(i), assign) {
					return c.Vis[i]
				}
			}
			return nil
		}
	}
	for i := range c.Vis {
		if c.matches(i, assign) {
			return c.Vis[i]
		}
	}
	return nil
}

// concat appends the other collection (f3 = f1 + f2).
func (c *Collection) concat(o *Collection) *Collection {
	out := &Collection{}
	out.Vis = append(append([]*vis.Visualization{}, c.Vis...), o.Vis...)
	out.combos = append(append([]map[string]element{}, c.combos...), o.combos...)
	return out
}

// minus removes visualizations whose key appears in o (f3 = f1 - f2).
func (c *Collection) minus(o *Collection) *Collection {
	drop := make(map[string]bool, len(o.Vis))
	for _, v := range o.Vis {
		drop[v.Key()] = true
	}
	out := &Collection{}
	for i, v := range c.Vis {
		if !drop[v.Key()] {
			out.Vis = append(out.Vis, v)
			out.combos = append(out.combos, c.combos[i])
		}
	}
	return out
}

// intersect keeps visualizations whose key appears in o (f3 = f1 ^ f2).
func (c *Collection) intersect(o *Collection) *Collection {
	keep := make(map[string]bool, len(o.Vis))
	for _, v := range o.Vis {
		keep[v.Key()] = true
	}
	out := &Collection{}
	for i, v := range c.Vis {
		if keep[v.Key()] {
			out.Vis = append(out.Vis, v)
			out.combos = append(out.combos, c.combos[i])
		}
	}
	return out
}

// dedup keeps the first appearance of each visualization (f2 = f1.range).
func (c *Collection) dedup() *Collection {
	seen := make(map[string]bool, len(c.Vis))
	out := &Collection{}
	for i, v := range c.Vis {
		if seen[v.Key()] {
			continue
		}
		seen[v.Key()] = true
		out.Vis = append(out.Vis, v)
		out.combos = append(out.combos, c.combos[i])
	}
	return out
}

// index returns the i-th visualization, 1-based (f2 = f1[i]).
func (c *Collection) index(i int) *Collection {
	out := &Collection{}
	if i >= 1 && i <= len(c.Vis) {
		out.Vis = append(out.Vis, c.Vis[i-1])
		out.combos = append(out.combos, c.combos[i-1])
	}
	return out
}

// slice returns visualizations i..j inclusive, 1-based; j<0 means to the end
// (f2 = f1[i:j]).
func (c *Collection) slice(i, j int) *Collection {
	if i < 1 {
		i = 1
	}
	if j < 0 || j > len(c.Vis) {
		j = len(c.Vis)
	}
	out := &Collection{}
	for k := i; k <= j; k++ {
		out.Vis = append(out.Vis, c.Vis[k-1])
		out.combos = append(out.combos, c.combos[k-1])
	}
	return out
}

// reorder sorts the collection by the position of each visualization's
// matching element in the order variables' bindings (f2 = f1.order with
// `u1 ->` markers).
func (c *Collection) reorder(orderVars []*binding) *Collection {
	// For each element of the order bindings (in order), emit the first
	// not-yet-taken visualization matching it; unmatched visualizations keep
	// their relative order at the end.
	taken := make([]bool, len(c.Vis))
	out := &Collection{}
	if len(orderVars) > 0 {
		for pos := range orderVars[0].elems {
			assign := make(map[string]element, len(orderVars))
			for vi, b := range orderVars {
				if pos < len(b.elems) {
					assign[orderKeyVar(vi)] = b.elems[pos]
				}
			}
			for i := range c.Vis {
				if taken[i] {
					continue
				}
				if c.matchesElems(i, assign) {
					taken[i] = true
					out.Vis = append(out.Vis, c.Vis[i])
					out.combos = append(out.combos, c.combos[i])
					break
				}
			}
		}
	}
	for i := range c.Vis {
		if !taken[i] {
			out.Vis = append(out.Vis, c.Vis[i])
			out.combos = append(out.combos, c.combos[i])
		}
	}
	return out
}

func orderKeyVar(i int) string { return "\x00order" + string(rune('0'+i)) }

// matchesElems is like matches but ignores variable names entirely, matching
// each element structurally.
func (c *Collection) matchesElems(i int, assign map[string]element) bool {
	v := c.Vis[i]
	combo := c.combos[i]
	for _, want := range assign {
		ok := false
		for _, got := range combo {
			if got.equal(want) {
				ok = true
				break
			}
		}
		if !ok && !structuralMatch(v, want) {
			return false
		}
	}
	return true
}

// derivedElements extracts the ordered distinct elements of an attribute (Z)
// or axis (X/Y) appearing in the collection, for `v2 <- 'product'._` and
// `y1 <- _` bindings against derived components.
func (c *Collection) derivedElements(kind elemKind, attr string) []element {
	var out []element
	seen := make(map[string]bool)
	add := func(e element) {
		if !seen[e.key()] {
			seen[e.key()] = true
			out = append(out, e)
		}
	}
	for _, v := range c.Vis {
		switch kind {
		case elemZ:
			for _, s := range v.Slices {
				if s.Attr == attr {
					add(element{kind: elemZ, attr: attr, val: s.Value})
				}
			}
		case elemX:
			add(element{kind: elemX, val: v.XAttr})
		case elemY:
			add(element{kind: elemY, val: v.YAttr})
		}
	}
	return out
}
