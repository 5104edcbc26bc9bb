package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// sharedRegionCatalog builds 400 suppliers over 100 regions with three
// orders each, confidences U[0.05, 0.95]: DISTINCT Region over the join
// yields 100 rows whose lineage is the join DNF ∨ₙᵢ(Sₙ ∧ Oₙᵢ) with four
// shared supplier variables — the Shannon path, not the read-once one.
func sharedRegionCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	c := relation.NewCatalog()
	s, err := c.CreateTable("S", relation.NewSchema(
		relation.Column{Name: "Name", Type: relation.TypeString},
		relation.Column{Name: "Region", Type: relation.TypeString},
	))
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.CreateTable("O", relation.NewSchema(
		relation.Column{Name: "Name", Type: relation.TypeString},
		relation.Column{Name: "Item", Type: relation.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	u := func() float64 { return 0.05 + 0.9*r.Float64() }
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("s%03d", i)
		s.MustInsert(u(), nil, relation.String_(name), relation.String_(fmt.Sprintf("r%02d", i%100)))
		for k := 0; k < 3; k++ {
			o.MustInsert(u(), nil, relation.String_(name), relation.Int(int64(k)))
		}
	}
	return c
}

const sharedRegionQuery = `SELECT Region, _confidence FROM (SELECT DISTINCT Region FROM S JOIN O ON S.Name = O.Name) AS d`

// regionsOf returns the sorted Region values of rows.
func regionsOf(rows []Row) string {
	var out []string
	for _, row := range rows {
		out = append(out, row.Tuple.Values[0].String())
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestConfidenceColumnEqualsRowConfidence: the _confidence column and
// the confidence the policy filter compares with β are one number, so a
// WHERE on the column selects exactly the rows a policy at the same
// threshold releases. Before the column went through evalClassified it
// was priced by the tree walk, which differs from the compiled kernel
// in the last bits on shared lineage (most of these 100 rows).
func TestConfidenceColumnEqualsRowConfidence(t *testing.T) {
	c := sharedRegionCatalog(t)
	rbac := policy.NewRBAC()
	rbac.AddRole("auditor")
	if err := rbac.AssignUser("ann", "auditor"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	for _, p := range []string{"browse", "audit"} {
		if err := purposes.Add(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	open := NewEngine(c, policy.NewStore(rbac, purposes), nil)
	all, err := open.Evaluate(Request{User: "ann", Query: sharedRegionQuery, Purpose: "browse"})
	if err != nil {
		t.Fatal(err)
	}
	if all.PolicyApplied || all.Released.Len() != 100 {
		t.Fatalf("applied=%v released=%d, want every one of 100 rows", all.PolicyApplied, all.Released.Len())
	}
	for i := range all.Released.Len() {
		row := all.Released.At(i)
		if col, _ := row.Tuple.Values[1].AsFloat(); col != row.Confidence {
			t.Errorf("region %v: _confidence %v != Row.Confidence %v", row.Tuple.Values[0], col, row.Confidence)
		}
	}

	// Definition 1 releases a row iff its confidence is strictly above β;
	// at every row's own confidence as the cut, WHERE must agree.
	for i := range all.Released.Len() {
		x := all.Released.At(i).Confidence
		var want []Row
		for j := range all.Released.Len() {
			if row := all.Released.At(j); row.Confidence > x {
				want = append(want, row)
			}
		}
		q := sharedRegionQuery + " WHERE _confidence > " + strconv.FormatFloat(x, 'g', -1, 64)
		got, err := open.Evaluate(Request{User: "ann", Query: q, Purpose: "browse"})
		if err != nil {
			t.Fatal(err)
		}
		if regionsOf(got.Released.rows) != regionsOf(want) {
			t.Fatalf("WHERE _confidence > %v kept %d rows, the policy rule keeps %d", x, got.Released.Len(), len(want))
		}
	}

	// And through the policy filter itself, at the median row's confidence.
	x := all.Released.At(50).Confidence
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "auditor", Purpose: "audit", Beta: x}); err != nil {
		t.Fatal(err)
	}
	gated, err := NewEngine(c, store, nil).Evaluate(Request{User: "ann", Query: sharedRegionQuery, Purpose: "audit"})
	if err != nil {
		t.Fatal(err)
	}
	where, err := open.Evaluate(Request{User: "ann", Query: sharedRegionQuery + " WHERE _confidence > " + strconv.FormatFloat(x, 'g', -1, 64), Purpose: "browse"})
	if err != nil {
		t.Fatal(err)
	}
	if !gated.PolicyApplied || gated.Released.Len() != 50 || regionsOf(gated.Released.rows) != regionsOf(where.Released.rows) {
		t.Fatalf("policy at β=%v released %d rows, WHERE kept %d", x, gated.Released.Len(), where.Released.Len())
	}
}
