package engine

import (
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// The vectorized predicate layer of the column store. A minisql.Expr is
// compiled once, at Prepare time, into a tree of vecFilters; at execution
// each filter evaluates one segment at a time into a selection bitmap
// (one bit per row of the segment) instead of being interpreted per row.
// Every filter also answers a zone-map question — "can this segment possibly
// contain a matching row?" — so segments the zone maps prove empty are
// skipped without touching their data.

// segWords is the bitmap length of one full segment's selection vector.
const segWords = segmentSize / 64

// vecFilter evaluates a predicate over one segment of a table.
//
// Implementations hold only immutable compile-time state (column slices,
// zone maps, constants), so one vecFilter may be evaluated by any number of
// goroutines at once — the same contract plan predicates already obey.
type vecFilter interface {
	// skip reports whether the zone maps PROVE segment s holds no matching
	// row. False means "maybe"; skip is always allowed to give up and return
	// false.
	skip(s int) bool
	// eval sets bit i-lo of bits for every matching row i in [lo, hi).
	// bits has segWords words and arrives zeroed.
	eval(lo, hi int, bits []uint64)
}

func setBit(bits []uint64, i int) { bits[i>>6] |= 1 << (uint(i) & 63) }
func clearBits(bits []uint64) {
	for i := range bits {
		bits[i] = 0
	}
}
func newSegBits() []uint64 { return make([]uint64, segWords) }

// segBitsPool recycles composite filters' scratch bitmaps. eval runs once
// per segment inside the scan hot loop, and filters must stay stateless for
// concurrent execution, so scratch is pooled instead of owned.
var segBitsPool = sync.Pool{New: func() any {
	b := newSegBits()
	return &b
}}

func getSegBits() *[]uint64  { return segBitsPool.Get().(*[]uint64) }
func putSegBits(b *[]uint64) { segBitsPool.Put(b) }

// maskTail clears the bits at and above n, so complements of a partial
// segment don't select rows past the table end.
func maskTail(bits []uint64, n int) {
	full := n >> 6
	if rem := uint(n) & 63; rem != 0 {
		bits[full] &= (1 << rem) - 1
		full++
	}
	for i := full; i < len(bits); i++ {
		bits[i] = 0
	}
}

// --- leaves ---------------------------------------------------------------

// constFilter matches everything or nothing (e.g. equality against a string
// the dictionary has never seen).
type constFilter struct{ match bool }

func (f constFilter) skip(int) bool { return !f.match }
func (f constFilter) eval(lo, hi int, bits []uint64) {
	if !f.match {
		return
	}
	n := hi - lo
	for w := 0; w < n>>6; w++ {
		bits[w] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		bits[n>>6] = 1<<rem - 1
	}
}

// codeFilter is a predicate over a dictionary-coded column, categorical or
// integer, decided per dictionary entry at Prepare: a row matches when its
// code is in the set. A set that covers no entry or every entry never gets
// here — it folds to a constFilter.
type codeFilter struct {
	// kernel evaluates the set over the column's packed codes: the width was
	// switched on once, at compile time.
	kernel func(lo, hi int, bits []uint64)
	// zone proves segments empty from the column's metadata, the way the
	// predicate's shape always has: presence bitsets for a categorical
	// column, the min/max tests of the raw-array filters for an integer one.
	zone zoneTest
	via  string // the skip attribution's mechanism: "dict", "zonemap" or "none"
	// eq is the matching code when the filter is one categorical equality —
	// what the scan's code-routed pass dispatches on — else -1.
	eq  int32
	col *dataset.Column
}

// zoneTest is the skip half of a vecFilter.
type zoneTest interface{ skip(s int) bool }

func (f *codeFilter) skip(s int) bool                { return f.zone.skip(s) }
func (f *codeFilter) eval(lo, hi int, bits []uint64) { f.kernel(lo, hi, bits) }

// eqZone is a categorical equality's zone test, or with neq an inequality's: a
// segment the code is absent from holds no row equal to it, one that holds
// nothing else no row unequal.
type eqZone struct {
	zone *ZoneData
	code int32
	neq  bool
}

func (z eqZone) skip(s int) bool {
	if z.neq {
		return z.zone.onlyCode(s, z.code)
	}
	return !z.zone.hasCode(s, z.code)
}

// presentZone is a categorical code set's zone test: a segment none of whose
// present codes is wanted holds no match.
type presentZone struct {
	zone *ZoneData
	want []uint64 // bitset over dictionary codes, zone.Words words
}

func (z presentZone) skip(s int) bool { return !z.zone.anyCode(s, z.want) }

type neverSkip struct{}

func (neverSkip) skip(int) bool { return false }

// selectMembers is the code-set kernel: bit j of word w says whether
// member[codes[64w+j]] is set. It builds each word of the selection without a
// branch per row; bits arrives zeroed and holds at least len(codes) bits.
func selectMembers[W dataset.Code](codes []W, member []uint8, bits []uint64) {
	for w := 0; len(codes) > 0; w++ {
		chunk := codes[:min(64, len(codes))]
		codes = codes[len(chunk):]
		var word uint64
		for j, c := range chunk {
			word |= uint64(member[c]) << uint(j)
		}
		bits[w] = word
	}
}

// selectCode is selectMembers for the set {code}, or with neq its complement:
// a compare in place of the table load, and no table to build for a
// dictionary of any size.
func selectCode[W dataset.Code](codes []W, code W, neq bool, bits []uint64) {
	var flip uint64
	if neq {
		flip = 1
	}
	for w := 0; len(codes) > 0; w++ {
		chunk := codes[:min(64, len(codes))]
		codes = codes[len(chunk):]
		var word uint64
		for j, c := range chunk {
			var hit uint64
			if c == code {
				hit = 1
			}
			word |= (hit ^ flip) << uint(j)
		}
		bits[w] = word
	}
}

// memberKernel instantiates selectMembers at the width of pc.
func memberKernel(pc dataset.Codes, member []uint8) func(lo, hi int, bits []uint64) {
	switch {
	case pc.U16 != nil:
		return func(lo, hi int, bits []uint64) { selectMembers(pc.U16[lo:hi], member, bits) }
	case pc.U32 != nil:
		return func(lo, hi int, bits []uint64) { selectMembers(pc.U32[lo:hi], member, bits) }
	}
	return func(lo, hi int, bits []uint64) { selectMembers(pc.U8[lo:hi], member, bits) }
}

// codeKernel instantiates selectCode at the width of pc.
func codeKernel(pc dataset.Codes, code int32, neq bool) func(lo, hi int, bits []uint64) {
	switch {
	case pc.U16 != nil:
		return func(lo, hi int, bits []uint64) { selectCode(pc.U16[lo:hi], uint16(code), neq, bits) }
	case pc.U32 != nil:
		return func(lo, hi int, bits []uint64) { selectCode(pc.U32[lo:hi], uint32(code), neq, bits) }
	}
	return func(lo, hi int, bits []uint64) { selectCode(pc.U8[lo:hi], uint8(code), neq, bits) }
}

// numRangeFilter matches numeric rows inside [lo, hi] (either bound may be
// infinite) — comparisons and BETWEEN both compile to this.
type numRangeFilter struct {
	ints   []int64
	floats []float64
	col    *dataset.Column // owns ints or floats: keeps their mapping alive
	zone   *ZoneData
	lo, hi float64
}

func (f *numRangeFilter) skip(s int) bool {
	return f.zone.Max[s] < f.lo || f.zone.Min[s] > f.hi
}

func (f *numRangeFilter) eval(lo, hi int, bits []uint64) {
	a, b := f.lo, f.hi
	if f.ints != nil {
		vals := f.ints
		for i := lo; i < hi; i++ {
			v := float64(vals[i])
			if v >= a && v <= b {
				setBit(bits, i-lo)
			}
		}
		return
	}
	vals := f.floats
	for i := lo; i < hi; i++ {
		if vals[i] >= a && vals[i] <= b {
			setBit(bits, i-lo)
		}
	}
}

// numNeFilter is numeric !=, the one comparison a single range can't express.
type numNeFilter struct {
	ints   []int64
	floats []float64
	col    *dataset.Column // owns ints or floats: keeps their mapping alive
	zone   *ZoneData
	val    float64
}

func (f *numNeFilter) skip(s int) bool {
	// min == max == val proves every non-NaN row equals val; a NaN row
	// still matches != (NaN compares unequal to everything), so its
	// presence voids the proof.
	return f.zone.Min[s] == f.val && f.zone.Max[s] == f.val && !f.zone.NaN[s]
}

func (f *numNeFilter) eval(lo, hi int, bits []uint64) {
	v := f.val
	if f.ints != nil {
		vals := f.ints
		for i := lo; i < hi; i++ {
			if float64(vals[i]) != v {
				setBit(bits, i-lo)
			}
		}
		return
	}
	vals := f.floats
	for i := lo; i < hi; i++ {
		if vals[i] != v {
			setBit(bits, i-lo)
		}
	}
}

// numSetFilter is a numeric IN list. The zone test uses the set's own
// min/max envelope: if every wanted value lies outside the segment's range,
// no row can match.
type numSetFilter struct {
	ints           []int64
	floats         []float64
	col            *dataset.Column // owns ints or floats: keeps their mapping alive
	zone           *ZoneData
	want           map[float64]bool
	wantLo, wantHi float64
}

func (f *numSetFilter) skip(s int) bool {
	return f.wantHi < f.zone.Min[s] || f.wantLo > f.zone.Max[s]
}

func (f *numSetFilter) eval(lo, hi int, bits []uint64) {
	if f.ints != nil {
		vals := f.ints
		for i := lo; i < hi; i++ {
			if f.want[float64(vals[i])] {
				setBit(bits, i-lo)
			}
		}
		return
	}
	vals := f.floats
	for i := lo; i < hi; i++ {
		if f.want[vals[i]] {
			setBit(bits, i-lo)
		}
	}
}

// predFilter is the catch-all: it evaluates a compiled row predicate inside
// the segment loop. Shapes the typed leaves don't cover (mixed-kind
// comparisons, LIKE over numerics) land here; no zone skipping.
type predFilter struct{ pred rowPredicate }

func (f predFilter) skip(int) bool { return false }
func (f predFilter) eval(lo, hi int, bits []uint64) {
	for i := lo; i < hi; i++ {
		if f.pred(i) {
			setBit(bits, i-lo)
		}
	}
}

// --- composites -----------------------------------------------------------

// andFilter intersects its children's selections.
type andFilter struct{ args []vecFilter }

func (f *andFilter) skip(s int) bool {
	for _, a := range f.args {
		if a.skip(s) {
			return true
		}
	}
	return false
}

func (f *andFilter) eval(lo, hi int, bits []uint64) {
	f.args[0].eval(lo, hi, bits)
	sp := getSegBits()
	defer putSegBits(sp)
	scratch := *sp
	for _, a := range f.args[1:] {
		clearBits(scratch)
		a.eval(lo, hi, scratch)
		for w := range bits {
			bits[w] &= scratch[w]
		}
	}
}

// orFilter unions its children's selections, skipping children the zone maps
// rule out for the segment.
type orFilter struct{ args []vecFilter }

func (f *orFilter) skip(s int) bool {
	for _, a := range f.args {
		if !a.skip(s) {
			return false
		}
	}
	return true
}

func (f *orFilter) eval(lo, hi int, bits []uint64) {
	s := lo / segmentSize
	sp := getSegBits()
	defer putSegBits(sp)
	scratch := *sp
	for _, a := range f.args {
		if a.skip(s) {
			continue
		}
		clearBits(scratch)
		a.eval(lo, hi, scratch)
		for w := range bits {
			bits[w] |= scratch[w]
		}
	}
}

// notFilter complements its child inside the segment.
type notFilter struct{ arg vecFilter }

func (f *notFilter) skip(int) bool { return false }
func (f *notFilter) eval(lo, hi int, bits []uint64) {
	f.arg.eval(lo, hi, bits)
	for w := range bits {
		bits[w] = ^bits[w]
	}
	maskTail(bits, hi-lo)
}

// --- compilation ----------------------------------------------------------

// compileVec lowers a predicate to a vectorized filter over ct. A nil expr
// matches every row. Compilation cannot fail where compilePredicate
// succeeded: any shape without a typed vectorized form falls back to a
// predFilter around the row-at-a-time closure.
func compileVec(ct *colTable, t *dataset.Table, e minisql.Expr) (vecFilter, error) {
	if e == nil {
		return constFilter{match: true}, nil
	}
	switch x := e.(type) {
	case *minisql.And:
		args, err := compileVecList(ct, t, x.Args)
		if err != nil {
			return nil, err
		}
		return &andFilter{args: args}, nil
	case *minisql.Or:
		args, err := compileVecList(ct, t, x.Args)
		if err != nil {
			return nil, err
		}
		return &orFilter{args: args}, nil
	case *minisql.Not:
		arg, err := compileVec(ct, t, x.Arg)
		if err != nil {
			return nil, err
		}
		return &notFilter{arg: arg}, nil
	case *minisql.Compare, *minisql.In, *minisql.Like, *minisql.Between:
		return compileVecLeaf(ct, t, e)
	}
	return fallbackFilter(t, e)
}

func compileVecList(ct *colTable, t *dataset.Table, exprs []minisql.Expr) ([]vecFilter, error) {
	out := make([]vecFilter, len(exprs))
	for i, e := range exprs {
		f, err := compileVec(ct, t, e)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// fallbackFilter wraps the row-at-a-time compiled predicate of e.
func fallbackFilter(t *dataset.Table, e minisql.Expr) (vecFilter, error) {
	pred, err := compilePredicate(t, e)
	if err != nil {
		return nil, err
	}
	return predFilter{pred: pred}, nil
}

// compileVecLeaf lowers a predicate over one column. Over a dictionary-coded
// column it becomes a code set, decided per dictionary entry by the very
// tests the row predicate is made of (stringEq, stringMembers, numericTest),
// so the two agree by construction — float64 coercion of large ints, LIKE, IN
// and != included. Raw numeric columns keep the typed array filters.
func compileVecLeaf(ct *colTable, t *dataset.Table, e minisql.Expr) (vecFilter, error) {
	c, err := lookupColumn(t, leafColumn(e))
	if err != nil {
		return nil, err
	}
	zone := ct.zones[c.Field.Name]
	if c.Field.Kind == dataset.KindString {
		if code, neq, ok := stringEq(c, e); ok {
			if code < 0 {
				return constFilter{match: neq}, nil
			}
			f := &codeFilter{kernel: codeKernel(c.Codes(), code, neq), zone: eqZone{zone, code, neq}, via: "dict", eq: code, col: c}
			if neq {
				f.eq = -1
			}
			return f, nil
		}
		if member, ok := stringMembers(c, e); ok {
			want := make([]uint64, zone.Words)
			for code, m := range member {
				want[code>>6] |= uint64(m) << (uint(code) & 63)
			}
			return memberFilter(c, member, presentZone{zone: zone, want: want}, "dict"), nil
		}
		return fallbackFilter(t, e)
	}
	// The raw-array filter of the predicate's shape: the filter itself over a
	// raw column, the zone test of the code set over a Coded one.
	raw := rawNumFilter(c, zone, e)
	if !c.Coded() {
		if raw == nil {
			return fallbackFilter(t, e)
		}
		return raw, nil
	}
	test, via := zoneTest(neverSkip{}), "none"
	if raw != nil {
		test, via = raw, "zonemap"
	}
	return memberFilter(c, numericTest(e).members(c), test, via), nil
}

// memberFilter returns the filter of a code set, folding the set that covers
// no dictionary entry, and the one that covers them all, to constants.
func memberFilter(c *dataset.Column, member []uint8, zone zoneTest, via string) vecFilter {
	n := 0
	for _, m := range member {
		n += int(m)
	}
	switch n {
	case 0:
		return constFilter{match: false}
	case len(member):
		return constFilter{match: true}
	}
	return &codeFilter{kernel: memberKernel(c.Codes(), member), zone: zone, via: via, eq: -1, col: c}
}

// rawNumFilter returns the typed array filter of a predicate over a numeric
// column, or nil when its shape has none (mixed-kind comparisons, LIKE).
func rawNumFilter(c *dataset.Column, zone *ZoneData, e minisql.Expr) vecFilter {
	numRange := func(lo, hi float64) vecFilter {
		return &numRangeFilter{ints: c.Ints(), floats: c.Floats(), col: c, zone: zone, lo: lo, hi: hi}
	}
	switch x := e.(type) {
	case *minisql.Between:
		if x.Lo.Kind != dataset.KindString && x.Hi.Kind != dataset.KindString {
			return numRange(x.Lo.Float(), x.Hi.Float())
		}
	case *minisql.Compare:
		if x.Val.Kind == dataset.KindString {
			return nil
		}
		v := x.Val.Float()
		switch x.Op {
		case minisql.CmpEq:
			return numRange(v, v)
		case minisql.CmpNe:
			return &numNeFilter{ints: c.Ints(), floats: c.Floats(), col: c, zone: zone, val: v}
		case minisql.CmpLt:
			return numRange(math.Inf(-1), math.Nextafter(v, math.Inf(-1)))
		case minisql.CmpLe:
			return numRange(math.Inf(-1), v)
		case minisql.CmpGt:
			return numRange(math.Nextafter(v, math.Inf(1)), math.Inf(1))
		case minisql.CmpGe:
			return numRange(v, math.Inf(1))
		}
	case *minisql.In:
		f := &numSetFilter{
			ints:   c.Ints(),
			floats: c.Floats(),
			col:    c,
			zone:   zone,
			want:   make(map[float64]bool, len(x.Vals)),
			wantLo: math.Inf(1),
			wantHi: math.Inf(-1),
		}
		for _, v := range x.Vals {
			fv := v.Float()
			f.want[fv] = true
			if fv < f.wantLo {
				f.wantLo = fv
			}
			if fv > f.wantHi {
				f.wantHi = fv
			}
		}
		if len(f.want) == 0 {
			return constFilter{match: false}
		}
		return f
	}
	return nil
}
