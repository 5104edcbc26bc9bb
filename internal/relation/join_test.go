package relation

import (
	"math"
	"testing"

	"pcqe/internal/lineage"
)

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	c, proposal, info := newVentureDB(t)
	// A NULL company on each side: NULL = NULL is not true, so the
	// nested loop joins neither, and the hash join must not either.
	proposal.MustInsert(0.5, nil, Null(), String_("orphan"), Float(1))
	info.MustInsert(0.5, nil, Null(), Float(1))
	// Equi-join on company with both algorithms.
	hj := &HashJoin{Left: info.Scan(), Right: proposal.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}
	joined := hj.Schema()
	li, err := NewColRef(joined, "CompanyInfo", "Company")
	if err != nil {
		t.Fatal(err)
	}
	ri, err := NewColRef(joined, "Proposal", "Company")
	if err != nil {
		t.Fatal(err)
	}
	nl := &NestedLoopJoin{
		Left:  info.Scan(),
		Right: proposal.Scan(),
		Pred:  &Binary{Op: OpEq, Left: li, Right: ri},
	}
	hrows, err := RunAt(hj, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	nrows, err := RunAt(nl, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(hrows) != len(nrows) {
		t.Fatalf("hash join %d rows, nested loop %d rows", len(hrows), len(nrows))
	}
	hkeys := map[string]int{}
	for _, r := range hrows {
		hkeys[r.Key()]++
	}
	for _, r := range nrows {
		hkeys[r.Key()]--
	}
	for k, n := range hkeys {
		if n != 0 {
			t.Errorf("row multiset mismatch at %q: %d", k, n)
		}
	}
}

func TestJoinLineageIsConjunction(t *testing.T) {
	c, proposal, info := newVentureDB(t)
	hj := &HashJoin{Left: info.Scan(), Right: proposal.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}
	rows, err := RunAt(hj, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Lineage.Kind() != lineage.KindAnd {
			t.Fatalf("join lineage should be AND, got %v", r.Lineage)
		}
		if len(r.Lineage.Vars()) != 2 {
			t.Fatalf("join lineage should mention 2 base tuples, got %v", r.Lineage)
		}
		// Confidence is the product of the two base confidences.
		vars := r.Lineage.Vars()
		want := c.Snapshot().ProbOf(vars[0]) * c.Snapshot().ProbOf(vars[1])
		if got := c.Snapshot().Confidence(r); math.Abs(got-want) > 1e-9 {
			t.Errorf("confidence = %v, want %v", got, want)
		}
	}
}

func TestNestedLoopCrossProduct(t *testing.T) {
	c, proposal, info := newVentureDB(t)
	rows, err := RunAt(&NestedLoopJoin{Left: info.Scan(), Right: proposal.Scan()}, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != info.Len()*proposal.Len() {
		t.Fatalf("cross product: %d rows, want %d", len(rows), info.Len()*proposal.Len())
	}
}

func TestHashJoinKeyValidation(t *testing.T) {
	c, proposal, info := newVentureDB(t)
	hj := &HashJoin{Left: info.Scan(), Right: proposal.Scan()}
	if err := hj.Open(c.Version()); err == nil {
		t.Error("empty key lists should fail")
	}
	hj = &HashJoin{Left: info.Scan(), Right: proposal.Scan(), LeftKeys: []int{0}, RightKeys: []int{0, 1}}
	if err := hj.Open(c.Version()); err == nil {
		t.Error("mismatched key lists should fail")
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	c := NewCatalog()
	empty, _ := c.CreateTable("E", NewSchema(Column{Name: "a", Type: TypeInt}))
	other, _ := c.CreateTable("O", NewSchema(Column{Name: "a", Type: TypeInt}))
	other.MustInsert(1, nil, Int(1))
	rows, err := RunAt(&HashJoin{Left: empty.Scan(), Right: other.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}, c.Version())
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty left: %d rows, %v", len(rows), err)
	}
	rows, err = RunAt(&HashJoin{Left: other.Scan(), Right: empty.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}, c.Version())
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty right: %d rows, %v", len(rows), err)
	}
}

func TestJoinSchemaConcat(t *testing.T) {
	_, proposal, info := newVentureDB(t)
	hj := &HashJoin{Left: info.Scan(), Right: proposal.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}
	s := hj.Schema()
	if s.Len() != info.Schema().Len()+proposal.Schema().Len() {
		t.Fatalf("schema len = %d", s.Len())
	}
	// Both Company columns resolvable via qualifiers, ambiguous without.
	if _, err := s.Resolve("", "Company"); err == nil {
		t.Error("unqualified Company should be ambiguous")
	}
	if _, err := s.Resolve("Proposal", "Company"); err != nil {
		t.Errorf("qualified resolve failed: %v", err)
	}
}
