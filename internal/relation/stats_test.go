package relation

import (
	"math"
	"testing"
)

func statsTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("T", NewSchema(
		Column{Name: "k", Type: TypeInt},
		Column{Name: "name", Type: TypeString},
	))
	if err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(0.9, nil, Int(3), String_("c"))
	tab.MustInsert(0.8, nil, Int(1), String_("a"))
	tab.MustInsert(0.7, nil, Int(3), Null())
	tab.MustInsert(0.6, nil, Int(7), String_("b"))
	return c, tab
}

func TestTableStatsCollection(t *testing.T) {
	_, tab := statsTable(t)
	st := tab.Stats()
	if st.Rows != 4 {
		t.Fatalf("Rows = %d, want 4", st.Rows)
	}
	k := st.Cols[0]
	if k.Distinct != 3 || k.Nulls != 0 {
		t.Errorf("k stats = %+v, want 3 distinct, 0 nulls", k)
	}
	if min, _ := k.Min.AsInt(); min != 1 {
		t.Errorf("k min = %v, want 1", k.Min)
	}
	if max, _ := k.Max.AsInt(); max != 7 {
		t.Errorf("k max = %v, want 7", k.Max)
	}
	name := st.Cols[1]
	if name.Distinct != 3 || name.Nulls != 1 {
		t.Errorf("name stats = %+v, want 3 distinct, 1 null", name)
	}
	if s, _ := name.Min.AsString(); s != "a" {
		t.Errorf("name min = %v, want a", name.Min)
	}
}

func TestTableStatsCachedUntilMutation(t *testing.T) {
	c, tab := statsTable(t)
	st := tab.Stats()
	if again := tab.Stats(); again != st {
		t.Fatal("repeated Stats without mutation must return the cached object")
	}
	tab.MustInsert(0.5, nil, Int(9), String_("d"))
	st2 := tab.Stats()
	if st2 == st {
		t.Fatal("Insert must invalidate cached stats")
	}
	if st2.Rows != 5 || st2.Cols[0].Distinct != 4 {
		t.Fatalf("post-insert stats = %+v", st2)
	}
	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, nil); return err }); err != nil {
		t.Fatal(err)
	}
	if st3 := tab.Stats(); st3.Rows != 0 {
		t.Fatalf("post-delete stats rows = %d, want 0", st3.Rows)
	}
}

func TestDistinctOfFloor(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("E", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if d := st.DistinctOf(0); d != 1 {
		t.Errorf("DistinctOf on empty table = %v, want floor 1", d)
	}
	if d := st.DistinctOf(5); d != 1 {
		t.Errorf("DistinctOf out of range = %v, want 1", d)
	}
}

func TestHashJoinableTypes(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{TypeInt, TypeInt, true},
		{TypeString, TypeString, true},
		{TypeInt, TypeFloat, true},
		{TypeFloat, TypeInt, true},
		{TypeString, TypeInt, false},
		{TypeFloat, TypeString, false},
	}
	for _, c := range cases {
		if got := HashJoinableTypes(c.a, c.b); got != c.want {
			t.Errorf("HashJoinableTypes(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestTableStatsMatchNaiveReference: statistics read from the typed
// column vectors equal a naive pass over RowsAt that keys every cell
// with Value.Key and orders it with Compare — over every column type,
// NULLs, a NaN, -0 beside 0, a row an UPDATE re-recorded and a deleted
// row whose record is still stored.
func TestTableStatsMatchNaiveReference(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("S", NewSchema(
		Column{Name: "i", Type: TypeInt}, Column{Name: "f", Type: TypeFloat},
		Column{Name: "s", Type: TypeString}, Column{Name: "b", Type: TypeBool},
	))
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for _, r := range [][]Value{
		{Int(3), Float(2.5), String_("m"), Bool(true)},
		{Null(), Float(math.NaN()), Null(), Bool(false)},
		{Int(-4), Float(math.Copysign(0, -1)), String_("a"), Null()},
		{Int(3), Float(0), String_("z"), Bool(true)},
		{Int(9), Null(), String_("m"), Bool(false)},
		{Int(100), Float(1e9), String_("zz"), Bool(true)},
	} {
		x.MustInsert(tab, 0.5, nil, r...)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	i := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}
	eq := func(k int64) Expr { return &Binary{Op: OpEq, Left: i, Right: Const{Value: Int(k)}} }
	if err := inTxn(c, func(x *Txn) error {
		if _, err := x.Update(tab, eq(9), []UpdateSpec{{Column: 0, Value: Const{Value: Int(-7)}}, {Column: 2, Value: Const{Value: Null()}}}); err != nil {
			return err
		}
		_, err := x.Delete(tab, eq(100))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	defer snap.Release()
	rows := tab.RowsAt(snap)
	st := tab.Stats()
	if st.Rows != len(rows) || len(rows) != 5 {
		t.Fatalf("Rows = %d, RowsAt has %d, want 5", st.Rows, len(rows))
	}
	for ci, got := range st.Cols {
		want := ColumnStats{Min: Null(), Max: Null()}
		seen := map[string]bool{}
		for _, row := range rows {
			v := row.Values()[ci]
			if v.IsNull() {
				want.Nulls++
				continue
			}
			seen[v.Key()] = true
			if want.Min.IsNull() {
				want.Min, want.Max = v, v
			}
			if c, _ := Compare(v, want.Min); c < 0 {
				want.Min = v
			}
			if c, _ := Compare(v, want.Max); c > 0 {
				want.Max = v
			}
		}
		want.Distinct = len(seen)
		same := func(a, b Value) bool { return a.Type() == b.Type() && a.String() == b.String() }
		if got.Distinct != want.Distinct || got.Nulls != want.Nulls || !same(got.Min, want.Min) || !same(got.Max, want.Max) {
			t.Errorf("column %s: stats %+v, reference %+v", tab.Schema().Columns[ci].Name, got, want)
		}
	}
}
