package relation

import (
	"math"
	"testing"
)

func salesTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	s, _ := c.CreateTable("Sales", NewSchema(
		Column{Name: "Region", Type: TypeString},
		Column{Name: "Amount", Type: TypeInt},
	))
	s.MustInsert(0.9, nil, String_("east"), Int(10))
	s.MustInsert(0.8, nil, String_("east"), Int(20))
	s.MustInsert(0.7, nil, String_("west"), Int(5))
	s.MustInsert(0.6, nil, String_("west"), Null())
	return c, s
}

func TestAggregateGroupBy(t *testing.T) {
	c, s := salesTable(t)
	region, _ := NewColRef(s.Schema(), "", "Region")
	amount, _ := NewColRef(s.Schema(), "", "Amount")
	agg := &Aggregate{
		Input:   s.Scan(),
		GroupBy: []Expr{region},
		Aggs: []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Arg: amount},
			{Kind: AggAvg, Arg: amount},
			{Kind: AggMin, Arg: amount},
			{Kind: AggMax, Arg: amount},
		},
	}
	rows, err := RunAt(agg, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(rows))
	}
	for _, r := range rows {
		name, _ := r.Values[0].AsString()
		count, _ := r.Values[1].AsInt()
		switch name {
		case "east":
			if count != 2 {
				t.Errorf("east count = %d", count)
			}
			if sum, _ := r.Values[2].AsInt(); sum != 30 {
				t.Errorf("east sum = %v", r.Values[2])
			}
			if avg, _ := r.Values[3].AsFloat(); math.Abs(avg-15) > 1e-9 {
				t.Errorf("east avg = %v", r.Values[3])
			}
			// Group lineage = AND of both rows: 0.9 · 0.8 = 0.72.
			if p := c.Snapshot().Confidence(r); math.Abs(p-0.72) > 1e-9 {
				t.Errorf("east confidence = %v, want 0.72", p)
			}
		case "west":
			if count != 2 {
				t.Errorf("west COUNT(*) = %d, want 2 (NULL amounts still count rows)", count)
			}
			// SUM skips the NULL.
			if sum, _ := r.Values[2].AsInt(); sum != 5 {
				t.Errorf("west sum = %v", r.Values[2])
			}
			if mn, _ := r.Values[4].AsInt(); mn != 5 {
				t.Errorf("west min = %v", r.Values[4])
			}
			if mx, _ := r.Values[5].AsInt(); mx != 5 {
				t.Errorf("west max = %v", r.Values[5])
			}
		default:
			t.Errorf("unexpected group %q", name)
		}
	}
}

func TestAggregateCountColumnSkipsNulls(t *testing.T) {
	c, s := salesTable(t)
	amount, _ := NewColRef(s.Schema(), "", "Amount")
	rows, err := RunAt(&Aggregate{
		Input: s.Scan(),
		Aggs:  []AggSpec{{Kind: AggCount, Arg: amount}},
	}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rows[0].Values[0].AsInt(); n != 3 {
		t.Fatalf("COUNT(amount) = %d, want 3", n)
	}
}

func TestAggregateGlobalOverEmptyInput(t *testing.T) {
	c := NewCatalog()
	s, _ := c.CreateTable("E", NewSchema(Column{Name: "x", Type: TypeInt}))
	x, _ := NewColRef(s.Schema(), "", "x")
	rows, err := RunAt(&Aggregate{
		Input: s.Scan(),
		Aggs:  []AggSpec{{Kind: AggCount}, {Kind: AggSum, Arg: x}, {Kind: AggMin, Arg: x}},
	}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global aggregate should emit one row, got %d", len(rows))
	}
	if n, _ := rows[0].Values[0].AsInt(); n != 0 {
		t.Errorf("COUNT = %d", n)
	}
	if !rows[0].Values[1].IsNull() {
		t.Errorf("SUM of empty = %v, want NULL", rows[0].Values[1])
	}
	if !rows[0].Values[2].IsNull() {
		t.Errorf("MIN of empty = %v, want NULL", rows[0].Values[2])
	}
}

func TestAggregateGroupByEmptyInputNoGroups(t *testing.T) {
	c := NewCatalog()
	s, _ := c.CreateTable("E", NewSchema(Column{Name: "x", Type: TypeInt}))
	x, _ := NewColRef(s.Schema(), "", "x")
	rows, err := RunAt(&Aggregate{
		Input:   s.Scan(),
		GroupBy: []Expr{x},
		Aggs:    []AggSpec{{Kind: AggCount}},
	}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("grouped aggregate over empty input should emit 0 rows, got %d", len(rows))
	}
}

func TestAggregateSchemaNames(t *testing.T) {
	_, s := salesTable(t)
	region, _ := NewColRef(s.Schema(), "", "Region")
	amount, _ := NewColRef(s.Schema(), "", "Amount")
	agg := &Aggregate{
		Input:   s.Scan(),
		GroupBy: []Expr{region},
		Aggs:    []AggSpec{{Kind: AggSum, Arg: amount, Name: "total"}, {Kind: AggCount}},
	}
	sch := agg.Schema()
	if sch.Columns[0].Name != "Region" {
		t.Errorf("group col name = %q", sch.Columns[0].Name)
	}
	if sch.Columns[1].Name != "total" {
		t.Errorf("named agg col = %q", sch.Columns[1].Name)
	}
	if sch.Columns[2].Name != "count(*)" {
		t.Errorf("default agg name = %q", sch.Columns[2].Name)
	}
	if sch.Columns[2].Type != TypeInt {
		t.Errorf("count type = %v", sch.Columns[2].Type)
	}
}

func TestAggregateErrors(t *testing.T) {
	c, s := salesTable(t)
	region, _ := NewColRef(s.Schema(), "", "Region")
	// SUM over text errors.
	if _, err := RunAt(&Aggregate{Input: s.Scan(), Aggs: []AggSpec{{Kind: AggSum, Arg: region}}}, c.Version()); err == nil {
		t.Error("SUM(text) should fail")
	}
	// SUM without an argument errors.
	if _, err := RunAt(&Aggregate{Input: s.Scan(), Aggs: []AggSpec{{Kind: AggSum}}}, c.Version()); err == nil {
		t.Error("SUM without argument should fail")
	}
}

func TestSortOperator(t *testing.T) {
	c, s := salesTable(t)
	amount, _ := NewColRef(s.Schema(), "", "Amount")
	rows, err := RunAt(&Sort{Input: s.Scan(), Keys: []SortKey{{Expr: amount, Desc: true}}}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if v, _ := rows[0].Values[1].AsInt(); v != 20 {
		t.Errorf("first row amount = %v", rows[0].Values[1])
	}
	// NULL sorts last under DESC (it sorts first ascending).
	if !rows[3].Values[1].IsNull() {
		t.Errorf("last row should be NULL amount, got %v", rows[3].Values[1])
	}
	// Ascending puts NULL first.
	rows, err = RunAt(&Sort{Input: s.Scan(), Keys: []SortKey{{Expr: amount}}}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Values[1].IsNull() {
		t.Errorf("ascending: first row should be NULL")
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	c, s := salesTable(t)
	region, _ := NewColRef(s.Schema(), "", "Region")
	amount, _ := NewColRef(s.Schema(), "", "Amount")
	rows, err := RunAt(&Sort{Input: s.Scan(), Keys: []SortKey{
		{Expr: region},
		{Expr: amount, Desc: true},
	}}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := rows[0].Values[0].AsString(); r != "east" {
		t.Errorf("first region = %q", r)
	}
	if v, _ := rows[0].Values[1].AsInt(); v != 20 {
		t.Errorf("first amount = %v", rows[0].Values[1])
	}
}

func TestRenameQualifiesSchema(t *testing.T) {
	c, s := salesTable(t)
	r := &Rename{Input: s.Scan(), Alias: "sl"}
	if _, err := r.Schema().Resolve("sl", "Region"); err != nil {
		t.Errorf("alias resolve failed: %v", err)
	}
	if _, err := r.Schema().Resolve("Sales", "Region"); err == nil {
		t.Error("old qualifier should no longer resolve")
	}
	rows, err := RunAt(r, c.Version())
	if err != nil || len(rows) != 4 {
		t.Fatalf("rename passthrough: %d rows, %v", len(rows), err)
	}
}
