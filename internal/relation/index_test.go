package relation

import (
	"testing"
)

// lookup counts the rows the index resolves under k at the catalog's
// current version, the way the access leaf probes a bucket.
func lookup(ix *Index, k Value) int {
	n, at, v := 0, ix.table.catalog.Version(), ix.table.view()
	for _, r := range ix.candidates(k) {
		if v.live(r, at) {
			n++
		}
	}
	return n
}

func TestIndexLookupAndMaintenance(t *testing.T) {
	c, tab := intTable(t, 1, 2, 2, 3)
	ix, err := tab.CreateIndex("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := lookup(ix, Int(2)); got != 2 {
		t.Fatalf("Lookup(2) = %d rows", got)
	}
	if got := lookup(ix, Int(9)); got != 0 {
		t.Fatalf("Lookup(9) = %d rows", got)
	}
	if ix.Len() != 3 {
		t.Fatalf("distinct keys = %d", ix.Len())
	}
	// Inserts are indexed.
	tab.MustInsert(0.5, nil, Int(2))
	if got := lookup(ix, Int(2)); got != 3 {
		t.Fatalf("after insert Lookup(2) = %d", got)
	}
	// Deletes rebuild.
	a, _ := NewColRef(tab.Schema(), "", "a")
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Delete(tab, &Binary{Op: OpEq, Left: a, Right: Const{Value: Int(2)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(ix, Int(2)); got != 0 {
		t.Fatalf("after delete Lookup(2) = %d", got)
	}
	// Updates rebuild.
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{{Column: 0, Value: Const{Value: Int(7)}}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(ix, Int(7)); got != 2 {
		t.Fatalf("after update Lookup(7) = %d", got)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	_, tab := intTable(t, 1)
	if _, err := tab.CreateIndex("nope"); err == nil {
		t.Fatal("unknown column should fail")
	}
	ix1, _ := tab.CreateIndex("a")
	ix2, _ := tab.CreateIndex("a")
	if ix1 != ix2 {
		t.Fatal("CreateIndex should be idempotent")
	}
}

// eqConst builds "a = k" over tab's first column.
func eqConst(tab *Table, k Value) Expr {
	a, _ := NewColRef(tab.Schema(), "", tab.Schema().Columns[0].Name)
	return &Binary{Op: OpEq, Left: a, Right: Const{Value: k}}
}

func TestIndexScanOperator(t *testing.T) {
	c, tab := intTable(t, 1, 2, 2)
	if _, err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	op := Filter(tab.Scan(), eqConst(tab, Int(2)))
	if !ProbesIndex(op) {
		t.Fatalf("equality on an indexed column must probe the index:\n%s", Explain(op))
	}
	rows, err := RunAt(op, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if v, _ := r.Values[0].AsInt(); v != 2 {
			t.Fatalf("wrong row %v", r)
		}
		if r.Lineage == nil {
			t.Fatal("index scan must attach lineage")
		}
	}
}

// TestIndexLookupFoldsIntAndReal: 1 and 1.0 hash to one key, so a REAL
// probe finds INTEGER rows and the reverse.
func TestIndexLookupFoldsIntAndReal(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("F", NewSchema(Column{Name: "x", Type: TypeFloat}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, 1.5, 2, 1} {
		tab.MustInsert(0.5, nil, Float(f))
	}
	ix, err := tab.CreateIndex("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  Value
		want int
	}{{Int(1), 2}, {Float(1), 2}, {Float(1.5), 1}, {Int(2), 1}, {Float(2.5), 0}, {Null(), 0}, {String_("1"), 0}} {
		if got := lookup(ix, tc.key); got != tc.want {
			t.Errorf("Lookup(%v %s) = %d rows, want %d", tc.key, tc.key.Type(), got, tc.want)
		}
	}
}

// TestOptimizeIndexedSelect pins the push-filter rewrite both
// planners reach the leaf through.
func TestOptimizeIndexedSelect(t *testing.T) {
	c, tab := intTable(t, 1, 2, 3)
	if _, err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	a, _ := NewColRef(tab.Schema(), "", "a")
	eq := eqConst(tab, Int(2))
	// Plain equality: the leaf itself probes the index — no Select.
	op := Filter(tab.Scan(), eq)
	if _, ok := op.(*access); !ok || !ProbesIndex(op) {
		t.Fatalf("filtered scan = %T (index %v), want the leaf probing its index", op, ProbesIndex(op))
	}
	rows, err := RunAt(op, c.Version())
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
	// Equality with a further conjunct: same leaf, residual filter inside.
	gt := &Binary{Op: OpGt, Left: a, Right: Const{Value: Int(0)}}
	op = Filter(tab.Scan(), &Binary{Op: OpAnd, Left: gt, Right: eq})
	if got := Explain(op); got != "IndexScan T (a = 2) filter (T.a > 0)" {
		t.Fatalf("Explain = %q", got)
	}
	// Reversed constant side also matches.
	rev := &Binary{Op: OpEq, Left: Const{Value: Int(2)}, Right: a}
	if !ProbesIndex(Filter(tab.Scan(), rev)) {
		t.Fatal("reversed equality should probe the index")
	}
	// Rename-wrapped scan keeps the alias.
	op = Filter(&Rename{Input: tab.Scan(), Alias: "x"}, eq)
	rn, ok := op.(*Rename)
	if !ok || rn.Alias != "x" || !ProbesIndex(op) {
		t.Fatalf("aliased filter = %T, index %v", op, ProbesIndex(op))
	}
	// Unindexed column, and inequality only: a filtered scan.
	plain, _ := NewCatalog().CreateTable("P", NewSchema(Column{Name: "a", Type: TypeInt}))
	plain.MustInsert(1, nil, Int(1))
	if op := Filter(plain.Scan(), eqConst(plain, Int(2))); ProbesIndex(op) || Explain(op) != "Scan P filter (P.a = 2)" {
		t.Fatalf("unindexed filter: %s", Explain(op))
	}
	if op := Filter(tab.Scan(), gt); ProbesIndex(op) || Explain(op) != "Scan T filter (T.a > 0)" {
		t.Fatalf("inequality filter: %s", Explain(op))
	}
	// Anything but a base-table leaf reading all its columns: Select.
	if _, ok := Filter(&Limit{Input: tab.Scan(), N: 1}, eq).(*Select); !ok {
		t.Fatal("filter over a non-leaf input should be a Select")
	}
	if _, ok := Filter(Prune(tab.Scan(), []int{0}), eq).(*Select); !ok {
		t.Fatal("filter over a pruned leaf should be a Select (its indices are the pruned schema's)")
	}
	// Prune keeps the leaf and its filter; elsewhere it is a ColumnMap.
	if got := Explain(Prune(Filter(tab.Scan(), gt), []int{0})); got != "Scan T filter (T.a > 0) cols [a]" {
		t.Fatalf("Explain = %q", got)
	}
	if _, ok := Prune(&Limit{Input: tab.Scan(), N: 1}, []int{0}).(*ColumnMap); !ok {
		t.Fatal("prune over a non-leaf input should be a ColumnMap")
	}
}

func TestOptimizedSelectEquivalence(t *testing.T) {
	// Same results with and without the index, lineage included — and
	// the same as the tree-walk Select over a bare scan.
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(
		Column{Name: "k", Type: TypeInt},
		Column{Name: "v", Type: TypeString},
	))
	for i := 0; i < 50; i++ {
		tab.MustInsert(0.5, nil, Int(int64(i%7)), String_("x"))
	}
	pred := eqConst(tab, Int(3))
	plain, err := RunAt(&Select{Input: &Limit{Input: tab.Scan(), N: -1}, Pred: pred}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := RunAt(Filter(tab.Scan(), pred), c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	fast, err := RunAt(Filter(tab.Scan(), pred), c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(fast) || len(plain) != len(scanned) {
		t.Fatalf("select %d rows, filtered scan %d, indexed %d", len(plain), len(scanned), len(fast))
	}
	for i := range plain {
		if plain[i].Key() != fast[i].Key() || plain[i].Key() != scanned[i].Key() {
			t.Fatalf("row %d differs", i)
		}
		if plain[i].Lineage.String() != fast[i].Lineage.String() || plain[i].Lineage.String() != scanned[i].Lineage.String() {
			t.Fatalf("row %d lineage differs", i)
		}
	}
}

func TestExplainIndexScan(t *testing.T) {
	_, tab := intTable(t, 1, 2)
	if _, err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	got := Explain(Filter(tab.Scan(), eqConst(tab, Int(2))))
	if got != "IndexScan T (a = 2)" {
		t.Fatalf("Explain = %q", got)
	}
}

// TestOneRowUpdateCostIsIndependentOfTableSize: a value-changing UPDATE
// of one row files its new record in the table's index rather than
// rebuilding the index, and tests every row's predicate in one reused
// image, so what it allocates does not grow with the table.
func TestOneRowUpdateCostIsIndependentOfTableSize(t *testing.T) {
	allocs := func(rows int) float64 {
		c := NewCatalog()
		tab, err := c.CreateTable("U", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "v", Type: TypeInt}))
		if err != nil {
			t.Fatal(err)
		}
		x := c.Begin()
		for i := 0; i < rows; i++ {
			x.MustInsert(tab, 0.5, nil, Int(int64(i)), Int(0))
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		v := int64(0)
		return testing.AllocsPerRun(20, func() {
			v++
			if err := inTxn(c, func(x *Txn) error {
				n, err := x.Update(tab, eqConst(tab, Int(7)), []UpdateSpec{{Column: 1, Value: Const{Value: Int(v)}}})
				if err == nil && n != 1 {
					t.Fatalf("updated %d rows, want 1", n)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(1000), allocs(16000)
	if big > small+2 {
		t.Errorf("a one-row UPDATE allocates %.0f times over 1 000 rows and %.0f over 16 000", small, big)
	}
}
