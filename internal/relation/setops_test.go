package relation

import (
	"math"
	"testing"

	"pcqe/internal/cost"
)

func twoLists(t *testing.T) (*Catalog, *Table, *Table) {
	t.Helper()
	c := NewCatalog()
	a, _ := c.CreateTable("A", NewSchema(Column{Name: "x", Type: TypeInt}))
	b, _ := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	a.MustInsert(0.5, cost.Linear{Rate: 1}, Int(1))
	a.MustInsert(0.6, cost.Linear{Rate: 1}, Int(2))
	b.MustInsert(0.7, cost.Linear{Rate: 1}, Int(2))
	b.MustInsert(0.8, cost.Linear{Rate: 1}, Int(3))
	return c, a, b
}

func TestUnionDistinctMergesLineage(t *testing.T) {
	c, a, b := twoLists(t)
	rows, err := RunAt(&Union{Left: a.Scan(), Right: b.Scan()}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		x, _ := r.Values[0].AsInt()
		p := c.Snapshot().Confidence(r)
		switch x {
		case 1:
			if math.Abs(p-0.5) > 1e-9 {
				t.Errorf("P(1) = %v", p)
			}
		case 2:
			// 0.6 ∨ 0.7 = 0.6+0.7−0.42 = 0.88
			if math.Abs(p-0.88) > 1e-9 {
				t.Errorf("P(2) = %v, want 0.88", p)
			}
		case 3:
			if math.Abs(p-0.8) > 1e-9 {
				t.Errorf("P(3) = %v", p)
			}
		}
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	c, a, b := twoLists(t)
	rows, err := RunAt(&Union{Left: a.Scan(), Right: b.Scan(), All: true}, c.Version())
	if err != nil || len(rows) != 4 {
		t.Fatalf("got %d rows (%v), want 4", len(rows), err)
	}
}

func TestUnionIncompatibleSchemas(t *testing.T) {
	c := NewCatalog()
	a, _ := c.CreateTable("A", NewSchema(Column{Name: "x", Type: TypeInt}))
	b, _ := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeString}))
	u := &Union{Left: a.Scan(), Right: b.Scan()}
	if err := u.Open(c.Version()); err == nil {
		t.Fatal("expected union-compatibility error")
	}
}

func TestIntersectLineage(t *testing.T) {
	c, a, b := twoLists(t)
	rows, err := RunAt(&Intersect{Left: a.Scan(), Right: b.Scan()}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if x, _ := rows[0].Values[0].AsInt(); x != 2 {
		t.Fatalf("intersect value = %v", rows[0].Values[0])
	}
	// P = 0.6 · 0.7 = 0.42: both occurrences must be real.
	if p := c.Snapshot().Confidence(rows[0]); math.Abs(p-0.42) > 1e-9 {
		t.Fatalf("P = %v, want 0.42", p)
	}
}

func TestExceptLineage(t *testing.T) {
	c, a, b := twoLists(t)
	rows, err := RunAt(&Except{Left: a.Scan(), Right: b.Scan()}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		x, _ := r.Values[0].AsInt()
		p := c.Snapshot().Confidence(r)
		switch x {
		case 1:
			if math.Abs(p-0.5) > 1e-9 {
				t.Errorf("P(1) = %v", p)
			}
		case 2:
			// present in both: 0.6 · (1−0.7) = 0.18
			if math.Abs(p-0.18) > 1e-9 {
				t.Errorf("P(2) = %v, want 0.18", p)
			}
		default:
			t.Errorf("unexpected row %v", r)
		}
	}
}

func TestExceptMergesLeftDuplicates(t *testing.T) {
	c := NewCatalog()
	a, _ := c.CreateTable("A", NewSchema(Column{Name: "x", Type: TypeInt}))
	b, _ := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	a.MustInsert(0.5, nil, Int(1))
	a.MustInsert(0.5, nil, Int(1))
	b.MustInsert(0.4, nil, Int(1))
	rows, err := RunAt(&Except{Left: a.Scan(), Right: b.Scan()}, c.Version())
	if err != nil || len(rows) != 1 {
		t.Fatalf("got %d rows (%v)", len(rows), err)
	}
	// (0.5 ∨ 0.5) ∧ ¬0.4 = 0.75 · 0.6 = 0.45
	if p := c.Snapshot().Confidence(rows[0]); math.Abs(p-0.45) > 1e-9 {
		t.Fatalf("P = %v, want 0.45", p)
	}
}

func TestIntersectExceptIncompatible(t *testing.T) {
	c := NewCatalog()
	a, _ := c.CreateTable("A", NewSchema(Column{Name: "x", Type: TypeInt}))
	b, _ := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeString}))
	if err := (&Intersect{Left: a.Scan(), Right: b.Scan()}).Open(c.Version()); err == nil {
		t.Error("intersect should reject incompatible schemas")
	}
	if err := (&Except{Left: a.Scan(), Right: b.Scan()}).Open(c.Version()); err == nil {
		t.Error("except should reject incompatible schemas")
	}
}
