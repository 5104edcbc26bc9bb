package core

import "testing"

// TestProposePlansOverTheFilteredLineage: the solver plans over the very
// formula the policy filter priced. A self-join and a UNION of one table
// give withheld rows repeated and absorbed terms (t ∧ t, t ∨ (t ∧ u),
// t ∨ u ∨ t); each Result.Formula must still be the row's own lineage,
// and applying the plan must release the rows it promised.
func TestProposePlansOverTheFilteredLineage(t *testing.T) {
	for _, q := range []string{
		`SELECT DISTINCT a.Kind FROM Items a JOIN Items b ON a.V = b.V WHERE a.V < 2`,
		`SELECT V FROM Items WHERE V < 2 UNION SELECT V FROM Items WHERE Kind = 'a'`,
	} {
		e := overlapEngine(t)
		req := Request{User: "u", Purpose: "p", MinFraction: 1, Query: q}
		resp, err := e.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Proposal == nil {
			t.Fatalf("%s: no proposal for %d withheld rows", q, len(resp.Withheld))
		}
		results := resp.Proposal.instance.Results
		if len(results) != len(resp.Withheld) {
			t.Fatalf("%s: %d results for %d withheld rows", q, len(results), len(resp.Withheld))
		}
		repeated := false
		for i, r := range results {
			if r.Formula != resp.Withheld[i].Tuple.Lineage {
				t.Fatalf("%s: result %d plans over %v, not the row's lineage %v", q, i, r.Formula, resp.Withheld[i].Tuple.Lineage)
			}
			repeated = repeated || !r.Formula.ReadOnce()
		}
		if !repeated {
			t.Fatalf("%s: every withheld lineage is read-once; the shape repeats no term", q)
		}
		promised := len(resp.Proposal.plan.Satisfied)
		if err := e.Apply(resp.Proposal); err != nil {
			t.Fatal(err)
		}
		after, err := e.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if after.Released.Len() < resp.Released.Len()+promised || after.Need(req) != 0 {
			t.Fatalf("%s: released %d after apply, want %d + %d promised (still short %d)",
				q, after.Released.Len(), resp.Released.Len(), promised, after.Need(req))
		}
	}
}
