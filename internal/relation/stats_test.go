package relation

import "testing"

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
