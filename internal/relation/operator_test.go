package relation

import (
	"math"
	"strings"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// newVentureDB builds the paper's running example (Tables 1 and 2).
func newVentureDB(t *testing.T) (*Catalog, *Table, *Table) {
	t.Helper()
	c := NewCatalog()
	proposal, err := c.CreateTable("Proposal", NewSchema(
		Column{Name: "Company", Type: TypeString},
		Column{Name: "Proposal", Type: TypeString},
		Column{Name: "Funding", Type: TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTable("CompanyInfo", NewSchema(
		Column{Name: "Company", Type: TypeString},
		Column{Name: "Income", Type: TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Tuple 01: a distractor above the funding limit.
	proposal.MustInsert(0.5, cost.Linear{Rate: 50},
		String_("AcmeSoft"), String_("cloud"), Float(2_000_000))
	// Tuples 02 and 03: ZStart with two proposals under one million.
	// Raising 02 by 0.1 costs 100; raising 03 by 0.1 costs 10 (paper).
	proposal.MustInsert(0.3, cost.Linear{Rate: 1000},
		String_("ZStart"), String_("sensor"), Float(800_000))
	proposal.MustInsert(0.4, cost.Linear{Rate: 100},
		String_("ZStart"), String_("mobile"), Float(900_000))
	// Tuple 13: ZStart's financials.
	info.MustInsert(0.1, cost.Linear{Rate: 100},
		String_("ZStart"), Float(120_000))
	// An unrelated company.
	info.MustInsert(0.9, nil, String_("AcmeSoft"), Float(5_000_000))
	return c, proposal, info
}

// ventureQuery builds Results = CompanyInfo ⋈ Π_Company σ_Funding<1e6 (Proposal).
func ventureQuery(t *testing.T, proposal, info *Table) Operator {
	t.Helper()
	funding, err := NewColRef(proposal.Schema(), "", "Funding")
	if err != nil {
		t.Fatal(err)
	}
	sel := &Select{
		Input: proposal.Scan(),
		Pred:  &Binary{Op: OpLt, Left: funding, Right: Const{Value: Float(1_000_000)}},
	}
	company, err := NewColRef(proposal.Schema(), "", "Company")
	if err != nil {
		t.Fatal(err)
	}
	candidate := &Project{Input: sel, Exprs: []Expr{company}, Distinct: true}
	return &HashJoin{
		Left:      info.Scan(),
		Right:     candidate,
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
}

func TestRunningExampleLineageAndConfidence(t *testing.T) {
	c, proposal, info := newVentureDB(t)
	rows, err := RunAt(ventureQuery(t, proposal, info), c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (only ZStart qualifies)", len(rows))
	}
	row := rows[0]
	if name, _ := row.Values[0].AsString(); name != "ZStart" {
		t.Fatalf("company = %v", row.Values[0])
	}
	// p38 = (p02 ∨ p03) ∧ p13 = (0.3+0.4−0.12)·0.1 = 0.058.
	if p := c.Snapshot().Confidence(row); math.Abs(p-0.058) > 1e-9 {
		t.Fatalf("confidence = %v, want 0.058", p)
	}
	// Lineage must mention exactly the three base tuples.
	if vars := row.Lineage.Vars(); len(vars) != 3 {
		t.Fatalf("lineage vars = %v", vars)
	}
	// Raising tuple 03 from 0.4 to 0.5 must give 0.065 (paper's choice).
	t03 := proposal.RowsAt(c.Snapshot())[2]
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(t03.Var(), 0.5) }); err != nil {
		t.Fatal(err)
	}
	if p := c.Snapshot().Confidence(row); math.Abs(p-0.065) > 1e-9 {
		t.Fatalf("confidence after increment = %v, want 0.065", p)
	}
}

func TestSelectFilters(t *testing.T) {
	c, proposal, _ := newVentureDB(t)
	funding, _ := NewColRef(proposal.Schema(), "", "Funding")
	rows, err := RunAt(&Select{
		Input: proposal.Scan(),
		Pred:  &Binary{Op: OpGe, Left: funding, Right: Const{Value: Float(1_000_000)}},
	}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

func TestProjectWithoutDistinctKeepsDuplicates(t *testing.T) {
	c, proposal, _ := newVentureDB(t)
	company, _ := NewColRef(proposal.Schema(), "", "Company")
	rows, err := RunAt(&Project{Input: proposal.Scan(), Exprs: []Expr{company}}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
}

func TestProjectDistinctMergesLineageWithOr(t *testing.T) {
	c, proposal, _ := newVentureDB(t)
	company, _ := NewColRef(proposal.Schema(), "", "Company")
	rows, err := RunAt(&Project{Input: proposal.Scan(), Exprs: []Expr{company}, Distinct: true}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		name, _ := r.Values[0].AsString()
		p := c.Snapshot().Confidence(r)
		switch name {
		case "AcmeSoft":
			if math.Abs(p-0.5) > 1e-9 {
				t.Errorf("AcmeSoft confidence = %v", p)
			}
		case "ZStart":
			if math.Abs(p-0.58) > 1e-9 {
				t.Errorf("ZStart confidence = %v, want 0.58", p)
			}
			if r.Lineage.Kind() != lineage.KindOr {
				t.Errorf("ZStart lineage should be OR, got %v", r.Lineage)
			}
		default:
			t.Errorf("unexpected company %q", name)
		}
	}
}

func TestProjectComputedColumnsAndNames(t *testing.T) {
	c, proposal, _ := newVentureDB(t)
	funding, _ := NewColRef(proposal.Schema(), "", "Funding")
	p := &Project{
		Input: proposal.Scan(),
		Exprs: []Expr{&Binary{Op: OpDiv, Left: funding, Right: Const{Value: Float(1000)}}},
		Names: []string{"funding_k"},
	}
	rows, err := RunAt(p, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Columns[0].Name != "funding_k" {
		t.Errorf("output name = %q", p.Schema().Columns[0].Name)
	}
	if f, _ := rows[0].Values[0].AsFloat(); f != 2000 {
		t.Errorf("computed value = %v", rows[0].Values[0])
	}
}

func TestLimitAndOffset(t *testing.T) {
	c, proposal, _ := newVentureDB(t)
	rows, err := RunAt(&Limit{Input: proposal.Scan(), N: 2}, c.Version())
	if err != nil || len(rows) != 2 {
		t.Fatalf("limit 2: %d rows, %v", len(rows), err)
	}
	rows, err = RunAt(&Limit{Input: proposal.Scan(), N: 5, Offset: 2}, c.Version())
	if err != nil || len(rows) != 1 {
		t.Fatalf("offset 2: %d rows, %v", len(rows), err)
	}
	rows, err = RunAt(&Limit{Input: proposal.Scan(), N: -1, Offset: 1}, c.Version())
	if err != nil || len(rows) != 2 {
		t.Fatalf("negative N means no limit: %d rows, %v", len(rows), err)
	}
}

func TestValuesOperator(t *testing.T) {
	v := &Values{
		RowSchema: NewSchema(Column{Name: "x", Type: TypeInt}),
		Rows:      []*Tuple{NewTuple([]Value{Int(1)}, nil), NewTuple([]Value{Int(2)}, nil)},
	}
	rows, err := RunAt(v, 1) // Values reads no version
	if err != nil || len(rows) != 2 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	// Reopenable.
	rows, err = RunAt(v, 1)
	if err != nil || len(rows) != 2 {
		t.Fatalf("reopen: %d rows, %v", len(rows), err)
	}
}

func TestTupleKeyAndClone(t *testing.T) {
	a := NewTuple([]Value{Int(1), String_("x")}, nil)
	b := NewTuple([]Value{Int(1), String_("x")}, nil)
	if a.Key() != b.Key() {
		t.Error("equal tuples should share a key")
	}
	cl := a.Clone()
	cl.Values[0] = Int(2)
	if v, _ := a.Values[0].AsInt(); v != 1 {
		t.Error("clone should not alias values")
	}
	if !strings.Contains(a.String(), "1") {
		t.Errorf("String = %q", a.String())
	}
}

func TestInsertValidation(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeFloat},
	))
	if _, err := tab.Insert([]Value{Int(1)}, 0.5, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tab.Insert([]Value{String_("x"), Float(1)}, 0.5, nil); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := tab.Insert([]Value{Int(1), Float(1)}, 1.5, nil); err == nil {
		t.Error("confidence > 1 should fail")
	}
	// Int into REAL column coerces.
	row, err := tab.Insert([]Value{Int(1), Int(2)}, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.Values()[1].Type() != TypeFloat {
		t.Error("int should coerce to float in REAL column")
	}
	// NULL is allowed anywhere.
	if _, err := tab.Insert([]Value{Null(), Null()}, 0.5, nil); err != nil {
		t.Errorf("NULL insert failed: %v", err)
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateTable("T", NewSchema(Column{Name: "a", Type: TypeInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", NewSchema(Column{Name: "a", Type: TypeInt})); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	if _, err := c.Table("T"); err != nil {
		t.Error("lookup by exact name")
	}
	if _, err := c.Table("t"); err != nil {
		t.Error("lookup is case-insensitive")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("unknown table should fail")
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "T" {
		t.Errorf("TableNames = %v", got)
	}
	if err := c.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("T"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCatalogConfidenceUpdates(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(Column{Name: "a", Type: TypeInt}))
	row := tab.MustInsert(0.3, cost.Linear{Rate: 1}, Int(1))
	if p := c.Snapshot().ProbOf(row.Var()); p != 0.3 {
		t.Errorf("ProbOf = %v", p)
	}
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(row.Var(), 0.8) }); err != nil {
		t.Fatal(err)
	}
	if p := c.Snapshot().ProbOf(row.Var()); p != 0.8 {
		t.Errorf("after update ProbOf = %v", p)
	}
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(row.Var(), 1.5) }); err == nil {
		t.Error("confidence > 1 should fail")
	}
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(lineage.Var(9999), 0.5) }); err == nil {
		t.Error("unknown var should fail")
	}
	if c.Snapshot().ProbOf(lineage.Var(424242)) != 0 {
		t.Error("unknown var probability should be 0")
	}
	// BaseTupleByVar resolves the current version: the 0.8 update's
	// copy-on-write version, not the inserted one, with its cost intact.
	got, ok := c.Snapshot().BaseTupleByVar(row.Var())
	if !ok || got.Var() != row.Var() {
		t.Fatal("BaseTupleByVar")
	}
	if got.Confidence() != 0.8 || got.MaxConf() != 1 || got.Cost() != row.Cost() {
		t.Errorf("current version = (%v, max %v, cost %v), want (0.8, max 1, cost %v)", got.Confidence(), got.MaxConf(), got.Cost(), row.Cost())
	}
}

func TestBaseTupleImprovable(t *testing.T) {
	b := &BaseTuple{confidence: 0.5, cost: cost.Linear{Rate: 1}}
	if !b.Improvable() {
		t.Error("should be improvable")
	}
	b.cost = nil
	if b.Improvable() {
		t.Error("nil cost is not improvable")
	}
	b.cost = cost.Linear{Rate: 1}
	b.confidence = 1
	if b.Improvable() {
		t.Error("at max confidence is not improvable")
	}
}
