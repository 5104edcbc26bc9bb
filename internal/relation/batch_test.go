package relation

import (
	"hash/maphash"
	"math"
	"strings"
	"testing"
	"unsafe"

	"pcqe/internal/lineage"
)

// TestCompositeKeysDoNotCollide: ("a\x1fsb", "c") and ("a", "b\x1fsc")
// are different rows. Every operator that matches rows by their values
// — DISTINCT, GROUP BY, the set operations and a two-column hash join —
// must keep them apart, whatever separator a string key would use.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	c := NewCatalog()
	schema := func() *Schema {
		return NewSchema(Column{Name: "a", Type: TypeString}, Column{Name: "b", Type: TypeString})
	}
	l, _ := c.CreateTable("L", schema())
	r, _ := c.CreateTable("R", schema())
	l.MustInsert(0.5, nil, String_("a\x1fsb"), String_("c"))
	r.MustInsert(0.5, nil, String_("a"), String_("b\x1fsc"))
	both := func() Operator { return &Union{Left: l.Scan(), Right: r.Scan(), All: true} }
	cols := func(op Operator) []Expr {
		s := op.Schema()
		return []Expr{&ColRef{Index: 0, Col: s.Columns[0]}, &ColRef{Index: 1, Col: s.Columns[1]}}
	}
	for _, tc := range []struct {
		name string
		op   Operator
		want int
	}{
		{"DISTINCT", &Project{Input: both(), Exprs: cols(both()), Distinct: true}, 2},
		{"GROUP BY", &Aggregate{Input: both(), GroupBy: cols(both()), Aggs: []AggSpec{{Kind: AggCount}}}, 2},
		{"UNION", &Union{Left: l.Scan(), Right: r.Scan()}, 2},
		{"INTERSECT", &Intersect{Left: l.Scan(), Right: r.Scan()}, 0},
		{"EXCEPT", &Except{Left: l.Scan(), Right: r.Scan()}, 1},
		{"HashJoin", &HashJoin{Left: l.Scan(), Right: r.Scan(), LeftKeys: []int{0, 1}, RightKeys: []int{0, 1}}, 0},
	} {
		rows, err := RunAt(tc.op, c.Version())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.name, len(rows), tc.want)
		}
		for _, row := range rows {
			if strings.Contains(row.Lineage.String(), "|") || strings.Contains(row.Lineage.String(), "&") {
				t.Errorf("%s: row %s has lineage %s, merged with the other row", tc.name, row, row.Lineage)
			}
		}
	}
}

// TestBatchAllocationBudget: a row costs allocations only where a
// consumer keeps it. A hash join whose probe side misses 90% of the
// time allocates for its matches, not for the probe rows that find
// nothing; a DISTINCT over n copies of one key allocates one output
// row, each further copy only the lineage variable the group's OR keeps.
func TestBatchAllocationBudget(t *testing.T) {
	allocs := func(op Operator, at int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunAt(op, at); err != nil {
				t.Fatal(err)
			}
		})
	}
	const matches = 1000
	probe := func(rows int) float64 {
		c := NewCatalog()
		l, _ := c.CreateTable("L", NewSchema(Column{Name: "k", Type: TypeInt}))
		r, _ := c.CreateTable("R", NewSchema(Column{Name: "k", Type: TypeInt}))
		x := c.Begin()
		for i := range rows {
			k := int64(i)
			if i >= matches {
				k = -k // misses
			}
			x.MustInsert(l, 0.5, nil, Int(k))
		}
		for i := range matches {
			x.MustInsert(r, 0.5, nil, Int(int64(i)))
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		return allocs(&HashJoin{Left: l.Scan(), Right: r.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}, c.Version())
	}
	if small, big := probe(10*matches), probe(20*matches); big-small > 0.01*10*matches {
		t.Errorf("hash join with %d matches: %.0f allocations over %d probe rows, %.0f over %d; want the misses free", matches, small, 10*matches, big, 20*matches)
	}

	distinctOf := func(n int) float64 {
		c := NewCatalog()
		tab, _ := c.CreateTable("T", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "pad", Type: TypeString}))
		x := c.Begin()
		for range n {
			x.MustInsert(tab, 0.5, nil, Int(7), String_("p"))
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		k := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}
		return allocs(&Project{Input: tab.Scan(), Exprs: []Expr{k}, Distinct: true}, c.Version())
	}
	const n = 2000
	if small, big := distinctOf(n), distinctOf(2*n); big-small > 1.1*n {
		t.Errorf("DISTINCT over %d then %d copies of one key: %.0f → %.0f allocations; want at most one (its lineage variable) per extra copy", n, 2*n, small, big)
	}

	// A point lookup that a cached plan runs again keeps its operators'
	// small buffers: it allocates no more than the 9 the row-at-a-time
	// operators did (the probe's key string; the row, its Tuple and its
	// lineage; RunAt's slice).
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "v", Type: TypeFloat}))
	x := c.Begin()
	for i := range 5000 {
		x.MustInsert(tab, 0.5, nil, Int(int64(i)), Float(float64(i)))
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	k, v := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, &ColRef{Index: 1, Col: tab.Schema().Columns[1]}
	point := &Project{Input: Filter(tab.Scan(), &Binary{Op: OpEq, Left: k, Right: Const{Value: Int(977)}}), Exprs: []Expr{k, v}}
	if a := allocs(point, c.Version()); a > 9 && !raceEnabled {
		t.Errorf("point lookup: %.0f allocations per run, want at most 9", a)
	}
}

// TestLimitStopsBeforeTheFailingRow: an operator hands out a batch at a
// time, but an error is still the first failing row's, and a LIMIT that
// is satisfied before that row never meets it — as when rows were
// pulled one at a time. Over more than a chunk of rows, the 1500th row
// fails the expression (its s is text, the others' NULL); a limit of
// 1499 rows, or an offset past them, decides whether the statement errs.
func TestLimitStopsBeforeTheFailingRow(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "s", Type: TypeString}))
	x := c.Begin()
	for i := range 3000 {
		s := Null()
		if i == 1499 {
			s = String_("x")
		}
		x.MustInsert(tab, 0.5, nil, Int(int64(i)), s)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	a, s := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, &ColRef{Index: 1, Col: tab.Schema().Columns[1]}
	pred := &Unary{Op: OpIsNull, Child: &Binary{Op: OpAdd, Left: a, Right: s}}
	for _, tc := range []struct {
		n, offset int
		rows      int
		fails     bool
	}{
		{n: 1499, rows: 1499},
		{n: 1500, fails: true},
		{n: 0, offset: 1499, rows: 0},
		{n: 0, offset: 1500, fails: true},
		{n: -1, fails: true},
	} {
		for _, op := range []Operator{
			&Limit{Input: &Select{Input: tab.Scan(), Pred: pred}, N: tc.n, Offset: tc.offset},
			&Limit{Input: &Project{Input: tab.Scan(), Exprs: []Expr{pred}}, N: tc.n, Offset: tc.offset},
			&Limit{Input: &NestedLoopJoin{Left: tab.Scan(), Right: &Limit{Input: tab.Scan(), N: 1}, Pred: pred}, N: tc.n, Offset: tc.offset},
		} {
			rows, err := RunAt(op, c.Version())
			if (err != nil) != tc.fails || err == nil && len(rows) != tc.rows {
				t.Errorf("%s\nLIMIT %d OFFSET %d: %d rows, %v; want %d rows, failing %v", Explain(op), tc.n, tc.offset, len(rows), err, tc.rows, tc.fails)
			}
		}
	}
}

// TestSameValueIsKeyEquality holds the typed key to the string key it
// replaced: two values match exactly when their Value.Key strings are
// equal (1 meets 1.0 and -0.0, every NaN meets every NaN, NULL meets
// NULL, "1" meets no number), and values that match hash alike.
func TestSameValueIsKeyEquality(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(1), Int(-1), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-1), Float(1 << 53),
		Float(math.NaN()), Float(-math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e300),
		String_(""), String_("1"), String_("i1"), String_("a\x1fsb"),
	}
	seed := maphash.MakeSeed()
	for _, a := range vals {
		for _, b := range vals {
			same := sameValue(a, b)
			if want := a.Key() == b.Key(); same != want {
				t.Errorf("sameValue(%v %v, %v %v) = %v, Key equality %v", a.Type(), a, b.Type(), b, same, want)
			}
			if same && keyHash(0, seed, a) != keyHash(0, seed, b) {
				t.Errorf("%v %v and %v %v match but hash apart", a.Type(), a, b.Type(), b)
			}
		}
	}
}

// TestHashChainsCompareValues: a hash only narrows the search. Two keys
// whose hashes collide (forced here by aiming one's hash at the other's
// chain) stay apart, in groups and in a hash join's build table.
func TestHashChainsCompareValues(t *testing.T) {
	one, two := []Value{Int(1)}, []Value{Int(2)}
	var g groups
	g.add(one, lin{})
	_, h := g.find(two)
	g.heads[h] = 0
	if got, _ := g.find(two); got != -1 {
		t.Fatalf("key 2 found as group %d, key 1's", got)
	}
	if g.add(two, lin{}) != 1 || g.next[1] != 0 {
		t.Fatalf("key 2 should open group 1 ahead of group 0 on the shared chain, next = %v", g.next)
	}
	if a, _ := g.find(one); a != 0 {
		t.Errorf("key 1 is group %d behind the collision, want 0", a)
	}

	c := NewCatalog()
	l, _ := c.CreateTable("L", NewSchema(Column{Name: "k", Type: TypeInt}))
	r, _ := c.CreateTable("R", NewSchema(Column{Name: "k", Type: TypeInt}))
	l.MustInsert(0.5, nil, Int(2))
	r.MustInsert(0.5, nil, Int(1))
	j := &HashJoin{Left: l.Scan(), Right: r.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}
	if err := j.Open(c.Version()); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h, _ = j.key(two, []int{0})
	j.heads[h] = 0 // key 2's probe lands on key 1's chain
	if b, err := j.next(); err != nil || b != nil {
		t.Errorf("probe 2 against build 1: %v, %v; want no row", b, err)
	}
}

// TestClosedPlanPinsNoBatch drains a DISTINCT over a Select over a
// ColumnMap over a HashJoin of two filtered leaves, wide enough that
// every batch is past a point lookup's size, and closes it: a plan
// cache keeps closed plans, so none of their operators may still hold
// what the execution read — an input batch aliased as the row an
// expression saw, the join's input or output, a leaf's records or its
// filter's selection vectors.
func TestClosedPlanPinsNoBatch(t *testing.T) {
	c := NewCatalog()
	l, _ := c.CreateTable("L", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "s", Type: TypeString}))
	r, _ := c.CreateTable("R", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "w", Type: TypeInt}))
	x := c.Begin()
	for i := range 3000 {
		x.MustInsert(l, 0.5, nil, Int(int64(i%500)), String_(string(rune('a'+i%7))))
		x.MustInsert(r, 0.5, nil, Int(int64(i%500)), Int(int64(i)))
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	gt := func(tab *Table) Expr {
		return &Binary{Op: OpGe, Left: &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, Right: Const{Value: Int(0)}}
	}
	left, right := Filter(l.Scan(), gt(l)).(*access), Filter(r.Scan(), gt(r)).(*access)
	join := &HashJoin{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}}
	cm := &ColumnMap{Input: join, Indices: []int{1, 3}}
	sel := &Select{Input: cm, Pred: &Binary{Op: OpGe, Left: &ColRef{Index: 1, Col: cm.Schema().Columns[1]}, Right: Const{Value: Int(0)}}}
	p := &Project{Input: sel, Exprs: []Expr{&ColRef{Index: 0, Col: cm.Schema().Columns[0]}}, Distinct: true}
	rows, err := RunAt(p, c.Version())
	if err != nil || len(rows) != 7 {
		t.Fatalf("rows = %d, %v; want 7", len(rows), err)
	}
	small := func(b *batch) bool { return cap(b.lins) <= 64 && cap(b.vals) <= 64*b.w }
	for what, pinned := range map[string]bool{
		"Project.row":        p.row.Values != nil,
		"Project's batch":    !small(&p.buf) || p.rows.n != 0,
		"Select.row":         sel.row.Values != nil,
		"Select's batch":     !small(&sel.out),
		"ColumnMap's batch":  !small(&cm.buf),
		"the join's input":   join.cur.in != nil || join.cur.lin != nil,
		"the join's output":  !small(&join.cur.out) || join.build.n != 0 || join.heads != nil,
		"buildJoin.row":      join.row.Values != nil,
		"the left leaf":      !small(&left.buf) || cap(left.f.sel) > 64 || cap(left.f.unsure) > 64 || left.view.chunks != nil,
		"the right leaf":     !small(&right.buf) || cap(right.f.sel) > 64 || right.view.chunks != nil || right.ch != nil,
		"a leaf's last cell": left.f.scratch.Values != nil,
	} {
		if pinned {
			t.Errorf("the closed plan still holds %s", what)
		}
	}

	// The group-join planned for DISTINCT over the key join: closed, it
	// holds neither rows nor a leaf's view of its table.
	left, right = Filter(l.Scan(), gt(l)).(*access), Filter(r.Scan(), gt(r)).(*access)
	join = &HashJoin{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}}
	cm = &ColumnMap{Input: join, Indices: []int{3, 1}}
	gj, ok := GroupJoinOf(&Project{Input: cm, Exprs: []Expr{&ColRef{Index: 0, Col: cm.Schema().Columns[0]}}, Distinct: true}).(*GroupJoin)
	if !ok {
		t.Fatal("DISTINCT R.w over the key join is not a group-join")
	}
	if rows, err := RunAt(gj, c.Version()); err != nil || len(rows) != 3000 {
		t.Fatalf("group-join rows = %d, %v; want 3000", len(rows), err)
	}
	for what, pinned := range map[string]bool{
		"the group-join's rows": gj.rows.n != 0 || gj.rows.blocks != nil,
		"the probe leaf":        !small(&left.buf) || cap(left.f.sel) > 64 || left.view.chunks != nil || left.ch != nil,
		"the build leaf":        !small(&right.buf) || cap(right.f.sel) > 64 || right.view.chunks != nil || right.ch != nil,
	} {
		if pinned {
			t.Errorf("the closed group-join still holds %s", what)
		}
	}
}

// TestPricedSlot: a slot carries a priced confidence bit for bit in its
// variable field and stays two words wide, since every batch row and
// kept row has one.
func TestPricedSlot(t *testing.T) {
	if n := unsafe.Sizeof(lin{}); n != 2*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("a lineage slot is %d bytes, want two words", n)
	}
	e := lineage.NewVar(7)
	for _, p := range []float64{0, 1, 0.5, 5e-324, math.Nextafter(1, 0), 0.1 * 0.3} {
		l := pricedLin(e, p)
		if got, ok := l.price(); !ok || math.Float64bits(got) != math.Float64bits(p) || l.expr() != e {
			t.Errorf("priced %v: read %v, %v, lineage %s", p, got, ok, l.expr())
		}
	}
	for _, l := range []lin{{e: e}, {v: 3}} {
		if p, ok := l.price(); ok {
			t.Errorf("unpriced slot %+v reads as priced at %v", l, p)
		}
	}
}
