package core

import (
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// overlapEngine builds a database where two queries depend on disjoint
// result sets over overlapping base tuples, forcing the multi-query
// planner's per-block top-up logic to run.
func overlapEngine(t *testing.T) *Engine {
	t.Helper()
	c := relation.NewCatalog()
	items, err := c.CreateTable("Items", relation.NewSchema(
		relation.Column{Name: "Kind", Type: relation.TypeString},
		relation.Column{Name: "V", Type: relation.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Several low-confidence rows of two kinds.
	for i := 0; i < 4; i++ {
		items.MustInsert(0.2, cost.Linear{Rate: 10 * float64(i+1)},
			relation.String_("a"), relation.Int(int64(i)))
	}
	for i := 0; i < 4; i++ {
		items.MustInsert(0.25, cost.Linear{Rate: 5 * float64(i+1)},
			relation.String_("b"), relation.Int(int64(i)))
	}
	rbac := policy.NewRBAC()
	rbac.AddRole("r")
	if err := rbac.AssignUser("u", "r"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	if err := purposes.Add("p", ""); err != nil {
		t.Fatal(err)
	}
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "r", Purpose: "p", Beta: 0.5}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(c, store, nil)
}

func TestEvaluateMultiTopUpCoversEveryBlock(t *testing.T) {
	e := overlapEngine(t)
	reqs := []Request{
		{User: "u", Purpose: "p", MinFraction: 0.5,
			Query: `SELECT V FROM Items WHERE Kind = 'a'`},
		{User: "u", Purpose: "p", MinFraction: 0.75,
			Query: `SELECT V FROM Items WHERE Kind = 'b'`},
	}
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if prop == nil {
		t.Fatal("expected a shared plan")
	}
	if err := e.Apply(prop); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		resp, err := e.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Need(req); got != 0 {
			t.Errorf("query %d still short %d rows (was released=%d withheld=%d)",
				i, got, resps[i].Released.Len(), len(resps[i].Withheld))
		}
	}
}

func TestEvaluateMultiInfeasibleSharedPlan(t *testing.T) {
	e := overlapEngine(t)
	// Freeze everything: no shared plan can exist.
	freezeTables(t, e.Catalog(), "Items")
	reqs := []Request{
		{User: "u", Purpose: "p", MinFraction: 1.0, Query: `SELECT V FROM Items WHERE Kind = 'a'`},
	}
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if prop != nil {
		t.Fatal("frozen database cannot have a plan")
	}
	if len(resps) != 1 {
		t.Fatalf("responses = %d", len(resps))
	}
}

func TestEvaluateMultiPropagatesQueryErrors(t *testing.T) {
	e := overlapEngine(t)
	_, _, err := e.EvaluateMulti([]Request{
		{User: "u", Purpose: "p", Query: `SELECT nope FROM Items`},
	})
	if err == nil {
		t.Fatal("bad query should surface")
	}
}

func TestExceptLineageSkippedInPlanning(t *testing.T) {
	e := overlapEngine(t)
	req := Request{
		User: "u", Purpose: "p", MinFraction: 1.0,
		// EXCEPT produces left ∧ ¬right lineage for rows present on both
		// sides; with disjoint V values per kind all 4 'a' rows survive
		// structurally, but rows matched on both sides carry negation.
		Query: `SELECT V FROM Items WHERE Kind = 'a'
			EXCEPT
			SELECT V FROM Items WHERE Kind = 'b' AND V > 1`,
	}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	// All rows are withheld (confidences ≤ 0.2 < 0.5); rows with negated
	// lineage must be excluded from the optimization and counted.
	if resp.Proposal == nil {
		t.Fatal("the monotone rows should still get a plan")
	}
	if resp.Proposal.Skipped() != 2 {
		t.Fatalf("skipped = %d, want 2 (V=2 and V=3 carry ¬b lineage)", resp.Proposal.Skipped())
	}
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	after, err := e.Evaluate(Request{User: "u", Purpose: "p",
		Query: `SELECT V FROM Items WHERE Kind = 'a' EXCEPT SELECT V FROM Items WHERE Kind = 'b' AND V > 1`})
	if err != nil {
		t.Fatal(err)
	}
	if after.Released.Len() < 2 {
		t.Fatalf("after improvement released = %d, want ≥ 2", after.Released.Len())
	}
	// Confidence arithmetic sanity: released rows clear β strictly.
	for i := range after.Released.Len() {
		row := after.Released.At(i)
		if !(row.Confidence > 0.5) {
			t.Fatalf("released row at %v", row.Confidence)
		}
	}
}
