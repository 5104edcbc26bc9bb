package relation

import (
	"strings"
	"testing"

	"pcqe/internal/cost"
)

func intTable(t *testing.T, vals ...int64) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, _ := c.CreateTable("T", NewSchema(Column{Name: "a", Type: TypeInt}))
	for _, v := range vals {
		tab.MustInsert(0.5, cost.Linear{Rate: 1}, Int(v))
	}
	return c, tab
}

func TestDeleteMatchingRows(t *testing.T) {
	c, tab := intTable(t, 1, 2, 3)
	a, _ := NewColRef(tab.Schema(), "", "a")
	victims := tab.RowsAt(c.Snapshot())[:2]
	x := c.Begin()
	n, err := x.Delete(tab, &Binary{Op: OpLt, Left: a, Right: Const{Value: Int(3)}})
	if err != nil || n != 2 {
		t.Fatalf("deleted %d, %v", n, err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("remaining = %d", tab.Len())
	}
	// Withdrawn rows keep their variable but have zero confidence.
	for _, v := range victims {
		if c.Snapshot().ProbOf(v.Var()) != 0 {
			t.Errorf("withdrawn row t%d confidence = %v", v.Var(), c.Snapshot().ProbOf(v.Var()))
		}
	}
}

func TestDeleteAllWithNilPred(t *testing.T) {
	c, tab := intTable(t, 1, 2)
	x := c.Begin()
	n, err := x.Delete(tab, nil)
	if _, cerr := x.Commit(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil || n != 2 || tab.Len() != 0 {
		t.Fatalf("n=%d len=%d err=%v", n, tab.Len(), err)
	}
}

func TestDeletePredicateError(t *testing.T) {
	c, tab := intTable(t, 1)
	a, _ := NewColRef(tab.Schema(), "", "a")
	// Predicate evaluating to a non-boolean errors.
	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, a); return err }); err == nil {
		t.Fatal("non-boolean predicate should fail")
	}
}

func TestUpdateValuesAndConfidence(t *testing.T) {
	c, tab := intTable(t, 1, 2)
	a, _ := NewColRef(tab.Schema(), "", "a")
	x := c.Begin()
	n, err := x.Update(tab,
		&Binary{Op: OpEq, Left: a, Right: Const{Value: Int(1)}},
		[]UpdateSpec{
			{Column: 0, Value: &Binary{Op: OpAdd, Left: a, Right: Const{Value: Int(10)}}},
			{Column: -1, Value: Const{Value: Float(0.9)}},
		})
	if err != nil || n != 1 {
		t.Fatalf("updated %d, %v", n, err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	// The updated row's values are a new record, appended: it now reads
	// after the row the UPDATE left alone.
	rows := tab.RowsAt(c.Snapshot())
	if v, _ := rows[1].Values()[0].AsInt(); v != 11 {
		t.Errorf("a = %v", rows[1].Values()[0])
	}
	if rows[1].Confidence() != 0.9 {
		t.Errorf("confidence = %v", rows[1].Confidence())
	}
	if v, _ := rows[0].Values()[0].AsInt(); v != 2 {
		t.Errorf("unmatched row changed: %v", rows[0].Values()[0])
	}
}

func TestUpdateValidation(t *testing.T) {
	c, tab := intTable(t, 1)
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{{Column: 0, Value: Const{Value: String_("x")}}})
		return err
	}); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{{Column: -1, Value: Const{Value: String_("x")}}})
		return err
	}); err == nil {
		t.Error("non-numeric confidence should fail")
	}
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{{Column: -1, Value: Const{Value: Float(1.5)}}})
		return err
	}); err == nil {
		t.Error("out-of-range confidence should fail")
	}
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{{Column: 7, Value: Const{Value: Int(1)}}})
		return err
	}); err == nil {
		t.Error("column out of range should fail")
	}
	// Int coerces into REAL columns.
	c = NewCatalog()
	rt, _ := c.CreateTable("R", NewSchema(Column{Name: "x", Type: TypeFloat}))
	rt.MustInsert(1, nil, Float(1))
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(rt, nil, []UpdateSpec{{Column: 0, Value: Const{Value: Int(2)}}})
		return err
	}); err != nil {
		t.Errorf("int into REAL should coerce: %v", err)
	}
	if rt.RowsAt(c.Snapshot())[0].Values()[0].Type() != TypeFloat {
		t.Error("coerced value should be REAL")
	}
}

func TestExplainTree(t *testing.T) {
	_, proposal, info := newVentureDB(t)
	op := ventureQuery(t, proposal, info)
	plan := Explain(op)
	for _, want := range []string{"HashJoin", "Scan CompanyInfo", "Project DISTINCT", "Select", "Scan Proposal", "└─", "├─"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainCoversAllOperators(t *testing.T) {
	_, proposal, info := newVentureDB(t)
	company, _ := NewColRef(proposal.Schema(), "", "Company")
	funding, _ := NewColRef(proposal.Schema(), "", "Funding")
	ops := []struct {
		op   Operator
		want string
	}{
		{&Values{RowSchema: proposal.Schema()}, "Values"},
		{&Limit{Input: proposal.Scan(), N: 3, Offset: 1}, "Limit 3 offset 1"},
		{&Limit{Input: proposal.Scan(), N: 3}, "Limit 3"},
		{&Sort{Input: proposal.Scan(), Keys: []SortKey{{Expr: funding, Desc: true}}}, "Sort [Proposal.Funding DESC]"},
		{&Rename{Input: proposal.Scan(), Alias: "p"}, "Rename AS p"},
		{&NestedLoopJoin{Left: proposal.Scan(), Right: info.Scan()}, "NestedLoopJoin (cross)"},
		{&Union{Left: proposal.Scan(), Right: proposal.Scan(), All: true}, "Union ALL"},
		{&Union{Left: proposal.Scan(), Right: proposal.Scan()}, "Union"},
		{&Intersect{Left: proposal.Scan(), Right: proposal.Scan()}, "Intersect"},
		{&Except{Left: proposal.Scan(), Right: proposal.Scan()}, "Except"},
		{&Aggregate{Input: proposal.Scan(), GroupBy: []Expr{company}, Aggs: []AggSpec{{Kind: AggCount}}}, "Aggregate [Proposal.Company, COUNT(*)]"},
		{&Project{Input: proposal.Scan(), Exprs: []Expr{company}, Names: []string{"c"}}, "Project [c]"},
	}
	for _, c := range ops {
		if got := Explain(c.op); !strings.Contains(got, c.want) {
			t.Errorf("Explain = %q, want substring %q", got, c.want)
		}
	}
}

func TestInSetExpr(t *testing.T) {
	set := map[string]bool{Int(1).Key(): true, Int(2).Key(): true}
	a := &ColRef{Index: 0, Col: Column{Name: "a", Type: TypeInt}}
	e := &InSet{Child: a, Set: set}
	if v := mustEval(t, e, NewTuple([]Value{Int(1)}, nil)); !Equal(v, Bool(true)) {
		t.Errorf("1 IN set = %v", v)
	}
	if v := mustEval(t, e, NewTuple([]Value{Int(3)}, nil)); !Equal(v, Bool(false)) {
		t.Errorf("3 IN set = %v", v)
	}
	neg := &InSet{Child: a, Set: set, Negate: true}
	if v := mustEval(t, neg, NewTuple([]Value{Int(3)}, nil)); !Equal(v, Bool(true)) {
		t.Errorf("3 NOT IN set = %v", v)
	}
	if v := mustEval(t, e, NewTuple([]Value{Null()}, nil)); !v.IsNull() {
		t.Errorf("NULL IN set = %v", v)
	}
	if e.Type() != TypeBool {
		t.Error("InSet type")
	}
	if s := e.String(); !strings.Contains(s, "IN") {
		t.Errorf("String = %q", s)
	}
	labeled := &InSet{Child: a, Set: set, Label: "(sub)"}
	if s := labeled.String(); !strings.Contains(s, "(sub)") {
		t.Errorf("labeled String = %q", s)
	}
}

func mustEval(t *testing.T, e Expr, tup *Tuple) Value {
	t.Helper()
	v, err := e.Eval(tup)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAttachConfidenceOperator(t *testing.T) {
	c, tab := intTable(t, 1, 2)
	op := &AttachConfidence{Input: tab.Scan(), Catalog: c}
	if op.Schema().Len() != tab.Schema().Len()+1 {
		t.Fatalf("schema len = %d", op.Schema().Len())
	}
	last := op.Schema().Columns[op.Schema().Len()-1]
	if last.Name != ConfidenceColumn || last.Type != TypeFloat {
		t.Fatalf("attached column = %+v", last)
	}
	rows, err := RunAt(op, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		p, ok := r.Values[len(r.Values)-1].AsFloat()
		if !ok || p != 0.5 {
			t.Fatalf("attached confidence = %v", r.Values[len(r.Values)-1])
		}
		if r.Lineage == nil {
			t.Fatal("lineage must pass through")
		}
	}
	// Composes under a join: attach reflects the lineage at that point.
	joined := &AttachConfidence{
		Input:   &NestedLoopJoin{Left: tab.Scan(), Right: tab.Scan()},
		Catalog: c,
	}
	jrows, err := RunAt(joined, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range jrows {
		p, _ := r.Values[len(r.Values)-1].AsFloat()
		want := 0.25
		if len(r.Lineage.Vars()) == 1 {
			want = 0.5 // self-paired row: t ∧ t = t
		}
		if Abs := p - want; Abs > 1e-9 || Abs < -1e-9 {
			t.Fatalf("joined confidence = %v, want %v", p, want)
		}
	}
}
