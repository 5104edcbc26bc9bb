package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pcqe/internal/lineage"
)

// predGrid is the row grid the compiled-vs-treewalk differential runs
// over: every combination of NULL and typed cells in an (INTEGER, REAL,
// TEXT, BOOLEAN) row, including an integer float64 cannot hold and a
// NaN.
func predGrid() (*Schema, [][]Value) {
	schema := NewSchema(
		Column{Name: "i", Type: TypeInt}, Column{Name: "f", Type: TypeFloat},
		Column{Name: "s", Type: TypeString}, Column{Name: "b", Type: TypeBool},
	)
	cells := [][]Value{
		{Null(), Int(-1), Int(0), Int(2), Int(1<<53 + 1)},
		{Null(), Float(-0.5), Float(2), Float(2.5), Float(math.NaN())},
		{Null(), String_(""), String_("a"), String_("b")},
		{Null(), Bool(true), Bool(false)},
	}
	var rows [][]Value
	for _, i := range cells[0] {
		for _, f := range cells[1] {
			for _, s := range cells[2] {
				for _, b := range cells[3] {
					rows = append(rows, []Value{i, f, s, b})
				}
			}
		}
	}
	return schema, rows
}

// predCorpus builds the predicate shapes: every column against every
// constant type under every comparison, both ways round (the typed
// closures, their NULL and INTEGER/REAL cases, and the type-mismatch
// errors), ANDs of those, and the nodes that fall back to Expr.Eval.
func predCorpus(schema *Schema) []Expr {
	col := func(i int) Expr { return &ColRef{Index: i, Col: schema.Columns[i]} }
	consts := []Value{Int(2), Float(2), Float(2.5), Int(1 << 53), String_("a"), Null(), Bool(true)}
	ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	var leaves []Expr
	for c := range schema.Columns {
		for _, k := range consts {
			for _, op := range ops {
				leaves = append(leaves,
					&Binary{Op: op, Left: col(c), Right: Const{Value: k}},
					&Binary{Op: op, Left: Const{Value: k}, Right: col(c)})
			}
		}
	}
	gt := func(c int, k Value) Expr { return &Binary{Op: OpGt, Left: col(c), Right: Const{Value: k}} }
	fallbacks := []Expr{
		&Binary{Op: OpOr, Left: gt(0, Int(0)), Right: gt(1, Float(2))},
		&Like{Child: col(2), Pattern: "a%"},
		&Like{Child: col(0), Pattern: "a%"}, // LIKE over INTEGER: error
		&Binary{Op: OpGt, Left: &Binary{Op: OpAdd, Left: col(0), Right: col(1)}, Right: Const{Value: Int(2)}},
		&Binary{Op: OpEq, Left: col(0), Right: col(1)},
		&Unary{Op: OpNot, Child: gt(0, Int(0))},
		&Unary{Op: OpIsNull, Child: col(2)},
		&InSet{Child: col(0), Set: map[string]bool{"i2": true}},
		col(3),               // a BOOLEAN column as the predicate
		col(0),               // not boolean: EvalBool's error
		Const{Value: Null()}, // NULL: not true
		&ColRef{Index: 9},    // out of range
		&Binary{Op: OpGt, Left: &ColRef{Index: 9}, Right: Const{Value: Int(0)}}, // out of range inside a typed closure
		&Binary{Op: OpAnd, Left: col(0), Right: gt(0, Int(0))},                  // AND over a non-boolean operand
		&Binary{Op: OpAnd, Left: Const{Value: Null()}, Right: gt(2, Int(0))},
		// (NULL AND false) is NULL, not false: the erroring right operand still runs.
		&Binary{Op: OpAnd, Left: &Binary{Op: OpAnd, Left: Const{Value: Null()}, Right: gt(0, Int(1<<60))}, Right: &Like{Child: col(0), Pattern: "a%"}},
	}
	out := append(append([]Expr{}, leaves...), fallbacks...)
	// ANDs: NULL or false on the left must (not) reach an erroring right
	// operand exactly as the tree walk does.
	rng := rand.New(rand.NewSource(3))
	pool := append(append([]Expr{}, leaves...), fallbacks[:9]...)
	for n := 0; n < 400; n++ {
		e := pool[rng.Intn(len(pool))]
		for d := rng.Intn(3); d >= 0; d-- {
			l, r := e, pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 { // either nesting: NULL AND false is NULL here, so shape decides what runs
				l, r = r, l
			}
			e = &Binary{Op: OpAnd, Left: l, Right: r}
		}
		out = append(out, e)
	}
	return out
}

func sameOutcome(got bool, gerr error, want bool, werr error) bool {
	if (gerr == nil) != (werr == nil) {
		return false
	}
	if gerr != nil {
		return gerr.Error() == werr.Error()
	}
	return got == want
}

// TestCompiledPredicateMatchesEvalBool: the filter's kernels and
// per-record conjuncts, with EvalBool deciding the records they leave
// unsure, agree with the tree walk on every row — result and error text
// alike — over a whole chunk's batch and over a sparse one (an index
// bucket's shape).
func TestCompiledPredicateMatchesEvalBool(t *testing.T) {
	schema, rows := predGrid()
	c := NewCatalog()
	tab, err := c.CreateTable("G", schema)
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for _, vals := range rows {
		x.MustInsert(tab, 0.5, nil, vals...)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	v := tab.view()
	ch := v.chunks[0]
	for _, e := range predCorpus(tab.Schema()) {
		for _, step := range []int{1, 3} {
			f := compileFilter(e, tab.Schema())
			for r := 0; r < v.n; r += step {
				f.sel = append(f.sel, int32(r))
			}
			f.narrow(ch)
			for r := 0; r < v.n; r += step {
				var got bool
				var gerr error
				switch {
				case slices.Contains(f.sel, int32(r)):
					got = true
				case slices.Contains(f.unsure, int32(r)):
					got, gerr = EvalBool(f.src, f.load(ch, int32(r)))
				}
				vals := v.values(nil, int32(r))
				want, werr := EvalBool(e, &Tuple{Values: vals})
				if !sameOutcome(got, gerr, want, werr) {
					t.Fatalf("%s on %v: kernels (%v, %v), tree walk (%v, %v)", e, vals, got, gerr, want, werr)
				}
			}
		}
	}
}

// TestFilteredLeafMatchesSelect runs the same corpus through the
// operators: the leaf filtering stored rows in place returns what a
// tree-walk loop over a bare scan returns, first error included, and
// allocates nothing for the rows it rejects.
func TestFilteredLeafMatchesSelect(t *testing.T) {
	schema, rows := predGrid()
	c := NewCatalog()
	tab, err := c.CreateTable("G", schema)
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for _, vals := range rows {
		x.MustInsert(tab, 0.5, nil, vals...)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	all, err := RunAt(tab.Scan(), c.Version())
	if err != nil {
		t.Fatal(err)
	}
	render := func(ts []*Tuple) string {
		s := ""
		for _, tu := range ts {
			s += tu.String() + tu.Lineage.String() + ";"
		}
		return s
	}
	for _, e := range predCorpus(tab.Schema()) {
		var want []*Tuple
		var werr error
		for _, tu := range all {
			ok, err := EvalBool(e, tu)
			if err != nil {
				want, werr = nil, err
				break
			}
			if ok {
				want = append(want, tu)
			}
		}
		got, gerr := RunAt(Filter(tab.Scan(), e), c.Version())
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) || render(got) != render(want) {
			t.Fatalf("%s: filtered leaf %d rows (%v), tree walk %d rows (%v)", e, len(got), gerr, len(want), werr)
		}
	}

	none := Filter(tab.Scan(), &Binary{Op: OpGt, Left: &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, Right: Const{Value: Int(1 << 60)}})
	if allocs := testing.AllocsPerRun(5, func() {
		if got, err := RunAt(none, c.Version()); err != nil || len(got) != 0 {
			t.Fatalf("rows = %d, %v", len(got), err)
		}
	}); allocs > 8 { // compiling the predicate at Open, nothing after
		t.Errorf("a scan rejecting all %d rows allocated %.0f times, want none per row", len(rows), allocs)
	}
}

// foldFixture is one table whose n rows all share the group key.
func foldFixture(t *testing.T, n int) (*Table, []lineage.Var) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("Grp", NewSchema(Column{Name: "g", Type: TypeInt}, Column{Name: "v", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	vars := make([]lineage.Var, n)
	for i := range vars {
		vars[i] = x.MustInsert(tab, 0.5, nil, Int(1), Int(int64(i))).Var()
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	return tab, vars
}

// TestLineageFoldsLinearAndIdentical: DISTINCT, GROUP BY and UNION over
// one group of 2 000 rows build the formula the pairwise fold builds
// (same rendering, hence the same confidence-cache key) in linear
// space: doubling the group doubles — not quadruples — what is
// allocated.
func TestLineageFoldsLinearAndIdentical(t *testing.T) {
	const n = 2000
	plans := func(tab *Table) map[string]Operator {
		g := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}
		project := func() Operator { return &Project{Input: tab.Scan(), Exprs: []Expr{g}} }
		return map[string]Operator{
			"DISTINCT": &Project{Input: tab.Scan(), Exprs: []Expr{g}, Distinct: true},
			"GROUP BY": &Aggregate{Input: tab.Scan(), GroupBy: []Expr{g}, Aggs: []AggSpec{{Kind: AggCount}}},
			"UNION":    &Union{Left: project(), Right: &Limit{Input: project(), N: 0}},
		}
	}
	tab, vars := foldFixture(t, n)
	pairwise := map[string]*lineage.Expr{"DISTINCT": lineage.False(), "GROUP BY": lineage.True(), "UNION": lineage.False()}
	for _, v := range vars {
		pairwise["DISTINCT"] = lineage.Or(pairwise["DISTINCT"], lineage.NewVar(v))
		pairwise["GROUP BY"] = lineage.And(pairwise["GROUP BY"], lineage.NewVar(v))
	}
	pairwise["UNION"] = pairwise["DISTINCT"]
	for name, op := range plans(tab) {
		rows, err := RunAt(op, tab.catalog.Version())
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: %d rows, %v", name, len(rows), err)
		}
		if got, want := rows[0].Lineage.String(), pairwise[name].String(); got != want {
			t.Errorf("%s lineage differs from the pairwise fold:\n got %.80s…\nwant %.80s…", name, got, want)
		}
	}

	big, _ := foldFixture(t, 2*n)
	measure := func(op Operator, at int64) (allocs float64, bytes uint64) {
		run := func() {
			if _, err := RunAt(op, at); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	bigPlans := plans(big)
	for name, op := range plans(tab) {
		a1, b1 := measure(op, tab.catalog.Version())
		a2, b2 := measure(bigPlans[name], big.catalog.Version())
		if a2 > 2.5*a1 || float64(b2) > 3*float64(b1) {
			t.Errorf("%s over %d then %d rows: %.0f → %.0f allocations, %d → %d bytes; want both to double", name, n, 2*n, a1, a2, b1, b2)
		}
	}
}

// joinImage renders a join result as a sorted multiset of value rows
// with their lineage.
func joinImage(t *testing.T, op Operator, version int64) []string {
	t.Helper()
	rows, err := RunAt(op, version)
	if err != nil {
		t.Fatalf("%s: %v", Explain(op), err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String() + " " + r.Lineage.String()
	}
	sort.Strings(out)
	return out
}

// indexJoinFixture builds an outer table with duplicate, NULL and
// unmatched keys and an indexed inner table, and returns the two plans
// to compare: IndexJoin probing the inner leaf, HashJoin building it.
func indexJoinFixture(t *testing.T) (c *Catalog, inner *Table, inl, hash func() Operator) {
	t.Helper()
	c = NewCatalog()
	outer, err := c.CreateTable("O", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "tag", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	inner, err = c.CreateTable("I", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "w", Type: TypeInt}, Column{Name: "pad", Type: TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for i, k := range []Value{Int(1), Int(1), Int(2), Null(), Int(9), Int(3)} {
		x.MustInsert(outer, 0.5, nil, k, Int(int64(i)))
	}
	for i, k := range []Value{Int(1), Int(1), Int(2), Null(), Int(3), Int(3), Int(4)} {
		x.MustInsert(inner, 0.5, nil, k, Int(int64(i)), String_("p"))
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	// The inner side carries a pushed-down filter, pruned columns and an
	// alias, like a planned leaf.
	leaf := func() Operator {
		w := &ColRef{Index: 1, Col: inner.Schema().Columns[1]}
		op := Filter(&Rename{Input: inner.Scan(), Alias: "i"}, &Binary{Op: OpGe, Left: w, Right: Const{Value: Int(1)}})
		return Prune(op, []int{0, 1})
	}
	inl = func() Operator { return &IndexJoin{Outer: outer.Scan(), Inner: leaf(), OuterKey: 0, InnerKey: 0} }
	hash = func() Operator {
		return &HashJoin{Left: outer.Scan(), Right: leaf(), LeftKeys: []int{0}, RightKeys: []int{0}}
	}
	return c, inner, inl, hash
}

// churnInner is one writer round over the inner table: re-key a row,
// delete one, insert two (one of them under a key the outer side has).
func churnInner(c *Catalog, inner *Table, round int) error {
	k := &ColRef{Index: 0, Col: inner.Schema().Columns[0]}
	w := &ColRef{Index: 1, Col: inner.Schema().Columns[1]}
	eq := func(col Expr, v int64) Expr { return &Binary{Op: OpEq, Left: col, Right: Const{Value: Int(v)}} }
	x := c.Begin()
	from, to := int64(2+round%3), int64(1+(round+1)%4)
	if _, err := x.Update(inner, eq(k, from), []UpdateSpec{{Column: 0, Value: Const{Value: Int(to)}}}); err != nil {
		x.Rollback()
		return err
	}
	if _, err := x.Delete(inner, eq(w, int64(round%9))); err != nil {
		x.Rollback()
		return err
	}
	x.MustInsert(inner, 0.5, nil, Int(int64(1+round%4)), Int(int64(100+round)), String_("n"))
	x.MustInsert(inner, 0.5, nil, Null(), Int(int64(200+round)), String_("n"))
	_, err := x.Commit()
	return err
}

func TestIndexJoinValidatesItsInnerSide(t *testing.T) {
	c, inner, inl, _ := indexJoinFixture(t)
	if got := Explain(inl()); got != "IndexJoin (O.k = i.k) probe I AS i filter (I.w >= 1) cols [k, w]\n└─ Scan O" {
		t.Errorf("Explain =\n%s", got)
	}
	for name, op := range map[string]Operator{
		"non-leaf inner":      &IndexJoin{Outer: inner.Scan(), Inner: &Limit{Input: inner.Scan(), N: 1}},
		"unindexed column":    &IndexJoin{Outer: inner.Scan(), Inner: inner.Scan(), InnerKey: 1},
		"column out of range": &IndexJoin{Outer: inner.Scan(), Inner: inner.Scan(), InnerKey: 7},
	} {
		if _, err := RunAt(op, c.Version()); err == nil {
			t.Errorf("%s: Open should fail", name)
		}
	}
}

func ExampleExplain_leaf() {
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "b", Type: TypeInt}))
	tab.CreateIndex("a")
	a, b := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, &ColRef{Index: 1, Col: tab.Schema().Columns[1]}
	pred := &Binary{Op: OpAnd,
		Left:  &Binary{Op: OpEq, Left: a, Right: Const{Value: Int(2)}},
		Right: &Binary{Op: OpLt, Left: b, Right: Const{Value: Int(5)}}}
	fmt.Println(Explain(Prune(Filter(tab.Scan(), pred), []int{1})))
	// Output: IndexScan T (a = 2) filter (T.b < 5) cols [b]
}
