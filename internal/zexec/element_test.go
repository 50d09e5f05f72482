package zexec

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/zql"
)

// refFind is find as it was before collections were indexed: a linear scan,
// first match wins, every element comparison through the built key string.
func refFind(c *Collection, assign map[string]element) *vis.Visualization {
	for i := range c.Vis {
		if refMatches(c, i, assign) {
			return c.Vis[i]
		}
	}
	return nil
}

func refMatches(c *Collection, i int, assign map[string]element) bool {
	if c.wildcard {
		return true
	}
	c.ensureMeta()
	combo := c.combos[i]
	for name, want := range assign {
		if got, ok := combo.get(name); ok {
			if got.key() != want.key() {
				return false
			}
			continue
		}
		if c.comboVars[name] {
			return false
		}
		covered := false
		for other, oe := range assign {
			if other != name && c.comboVars[other] && sameSlot(oe, want) {
				covered = true
				break
			}
		}
		if covered || !c.iteratesSlot(want) {
			continue
		}
		if !structuralMatch(c.Vis[i], want) {
			return false
		}
	}
	return true
}

// pointOf returns the point assigning m's variables, through a space of one
// dimension with one tuple.
func pointOf(m map[string]element) point {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	tuple := make([]element, len(names))
	for i, name := range names {
		tuple[i] = m[name]
	}
	return newSpace(nil, []dimension{{vars: names, elems: [][]element{tuple}}}).points()[0]
}

// assignMap returns the variables p assigns as a map.
func assignMap(p point) map[string]element {
	m := make(map[string]element, p.len())
	for i := 0; i < p.len(); i++ {
		if name, e, ok := p.elem(i); ok {
			m[name] = e
		}
	}
	return m
}

// sameFind requires the indexed find to return the very visualization (or the
// same nil) the linear scan does.
func sameFind(t *testing.T, where string, c *Collection, assign point) {
	t.Helper()
	if got, want := c.find(assign), refFind(c, assignMap(assign)); got != want {
		t.Fatalf("%s: find(%v) = %p, linear scan finds %p", where, assignMap(assign), got, want)
	}
}

// checkFinds replays every collection lookup the finished run's process
// declarations make — each loop assignment, through every nested inner
// aggregation, against every name variable the declaration reads — and
// returns how many it compared. Bindings and collections are only ever added
// during a run, so the assignments are the ones the run itself iterated.
func checkFinds(t *testing.T, where string, ex *executor) int {
	t.Helper()
	n := 0
	for _, rs := range ex.rows {
		for di := range rs.row.Process {
			d := &rs.row.Process[di]
			vars := d.LoopVars
			if d.Mech == zql.MechR {
				vars = d.RVars
			}
			spaces := make([]*space, 1+len(d.Inner))
			var err error
			if spaces[0], err = ex.loopSpace(nil, vars); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for level, ia := range d.Inner {
				if spaces[level+1], err = ex.loopSpace(spaces[level], ia.Vars); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
			var walk func(level int, assign point) error
			walk = func(level int, assign point) error {
				if level < len(d.Inner) {
					return spaces[level+1].eachExtension(assign, func(inner point) error {
						return walk(level+1, inner)
					})
				}
				for _, name := range processRefs(d) {
					if c := ex.colls[name]; c != nil {
						sameFind(t, where+": "+name, c, assign)
						n++
					}
				}
				return nil
			}
			for _, p := range spaces[0].points() {
				if err := walk(0, p); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
	return n
}

// runForFinds executes a script and hands back the executor's final state.
func runForFinds(t *testing.T, src string, db engine.DB, opts Options) (*executor, error) {
	t.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{q: q, db: db, opts: opts.withDefaults(), ctx: context.Background()}
	_, err = ex.run()
	return ex, err
}

// TestFindMatchesLinearScan runs the golden corpus and every paper table of
// zql.Corpus and compares the indexed find with the linear scan on every
// lookup they make. Tables 3.13, 3.16 and 3.24 are the ones that reach rules
// 2-4 of matches (fixed rows, derived components, same-slot variables).
func TestFindMatchesLinearScan(t *testing.T) {
	sales, airline := engine.NewRowStore(fixtureSales()), engine.NewRowStore(fixtureAirline())
	for _, gc := range goldenCases() {
		src, err := os.ReadFile(filepath.Join("testdata", "zql", gc.file))
		if err != nil {
			t.Fatal(err)
		}
		db := sales
		if gc.table().Name == "airline" {
			db = airline
		}
		for _, opt := range []OptLevel{NoOpt, InterTask} {
			ex, err := runForFinds(t, string(src), db, Options{Table: gc.table().Name, Seed: 42, Inputs: gc.inputs, Opt: opt})
			if err != nil {
				t.Fatalf("%s: %v", gc.file, err)
			}
			checkFinds(t, gc.file, ex)
		}
	}
	keys := make([]string, 0, len(zql.Corpus))
	for key := range zql.Corpus {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	compared := map[string]int{}
	for _, key := range keys {
		db, table := engine.DB(sales), "sales"
		if key == "7.1" || key == "7.2" {
			db, table = airline, "airline"
		}
		ex, err := runForFinds(t, zql.Corpus[key], db, Options{Table: table, Seed: 42, Inputs: drawnInput()})
		if err != nil {
			t.Logf("table %s does not run over the fixture: %v", key, err)
			continue
		}
		compared[key] = checkFinds(t, "table "+key, ex)
	}
	for _, key := range []string{"3.13", "3.16", "3.24"} {
		if compared[key] == 0 {
			t.Errorf("table %s compared no lookups", key)
		}
	}
}

// randomCollection builds what a run can: rows iterating one or two
// variables (with duplicate elements), fixed rows, user input, and concat /
// minus of those — so combos that are uniform, non-uniform and empty.
func randomCollection(rng *rand.Rand, depth int) *Collection {
	products := []string{"chair", "desk", "lamp", "table"}
	pick := func(kind elemKind) element {
		switch kind {
		case elemZ:
			attr := []string{"product", "location"}[rng.Intn(2)]
			return element{kind: elemZ, attr: attr, val: products[rng.Intn(len(products))]}
		case elemX:
			return element{kind: elemX, val: []string{"year", "month"}[rng.Intn(2)]}
		}
		return element{kind: elemY, val: []string{"sales", "profit"}[rng.Intn(2)]}
	}
	if depth > 0 && rng.Intn(2) == 0 {
		a, b := randomCollection(rng, depth-1), randomCollection(rng, depth-1)
		if rng.Intn(3) == 0 {
			return a.minus(b)
		}
		return a.concat(b)
	}
	input := &vis.Visualization{XAttr: "year", YAttr: "sales"}
	switch rng.Intn(5) {
	case 0: // user input
		return &Collection{Vis: []*vis.Visualization{input}, combos: []point{{}}, wildcard: true}
	case 1: // a fixed row
		input.Slices = []vis.Slice{{Attr: "product", Value: products[rng.Intn(len(products))]}}
		return &Collection{Vis: []*vis.Visualization{input}, combos: []point{{}}}
	}
	vars := []struct {
		name string
		kind elemKind
	}{{"v1", elemZ}, {"v2", elemZ}, {"x1", elemX}, {"y1", elemY}}
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	vars = vars[:1+rng.Intn(2)]
	c := &Collection{}
	for n := 1 + rng.Intn(8); n > 0; n-- {
		combo := map[string]element{}
		v := &vis.Visualization{XAttr: "year", YAttr: "sales"}
		for _, vr := range vars {
			e := pick(vr.kind)
			combo[vr.name] = e
			switch e.kind {
			case elemZ:
				v.Slices = append(v.Slices, vis.Slice{Attr: e.attr, Value: e.val})
			case elemX:
				v.XAttr = e.val
			case elemY:
				v.YAttr = e.val
			}
		}
		c.Vis, c.combos = append(c.Vis, v), append(c.combos, pointOf(combo))
	}
	return c
}

func randomAssignment(rng *rand.Rand) map[string]element {
	assign := map[string]element{}
	names := []string{"v1", "v2", "v3", "x1", "y1", "y2"}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		name := names[rng.Intn(len(names))]
		switch name[0] {
		case 'v':
			attr := []string{"product", "location"}[rng.Intn(2)]
			assign[name] = element{kind: elemZ, attr: attr, val: []string{"chair", "desk", "lamp", "table", "sofa"}[rng.Intn(5)]}
		case 'x':
			assign[name] = element{kind: elemX, val: []string{"year", "month"}[rng.Intn(2)]}
		default:
			assign[name] = element{kind: elemY, val: []string{"sales", "profit"}[rng.Intn(2)]}
		}
	}
	return assign
}

// TestFindProperty compares find with the linear scan over random
// collections and assignments, looking each collection up from several
// goroutines at once the way the process workers do: the index is built once,
// by whichever gets there first (run under -race).
func TestFindProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	indexed, scanned := 0, 0
	for trial := 0; trial < 400; trial++ {
		c := randomCollection(rng, 2)
		assigns := make([]map[string]element, 40)
		for i := range assigns {
			assigns[i] = randomAssignment(rng)
		}
		got := make([]*vis.Visualization, len(assigns))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(assigns); i += 4 {
					got[i] = c.find(pointOf(assigns[i]))
				}
			}(w)
		}
		wg.Wait()
		for i, assign := range assigns {
			if want := refFind(c, assign); got[i] != want {
				t.Fatalf("trial %d: %s\nfind(%v) = %p, linear scan finds %p", trial, describe(c), assign, got[i], want)
			}
		}
		if c.lookup != nil {
			indexed++
		} else {
			scanned++
		}
	}
	if indexed < 50 || scanned < 50 {
		t.Errorf("%d indexed and %d scanned collections: the generator lost one side", indexed, scanned)
	}
}

func describe(c *Collection) string {
	s := fmt.Sprintf("wildcard=%v", c.wildcard)
	for i, combo := range c.combos {
		s += fmt.Sprintf("\n  %d %p %v", i, c.Vis[i], assignMap(combo))
	}
	return s
}
