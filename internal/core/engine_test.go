package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pcqe/internal/cost"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// newVentureEngine assembles the paper's complete running example:
// Tables 1–2, policies P1 (secretary/analysis/0.05) and P2
// (manager/investment/0.06), users sue (secretary) and mark (manager).
func newVentureEngine(t *testing.T, solver strategy.Solver) *Engine {
	t.Helper()
	c := relation.NewCatalog()
	proposal, err := c.CreateTable("Proposal", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Proposal", Type: relation.TypeString},
		relation.Column{Name: "Funding", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTable("CompanyInfo", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Income", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Tuple numbering follows the paper: 02 and 03 are ZStart's
	// proposals, 13 is ZStart's financials. Raising 02 by 0.1 costs
	// 100; raising 03 by 0.1 costs 10.
	proposal.MustInsert(0.5, cost.Linear{Rate: 500},
		relation.String_("AcmeSoft"), relation.String_("cloud"), relation.Float(2e6))
	proposal.MustInsert(0.3, cost.Linear{Rate: 1000},
		relation.String_("ZStart"), relation.String_("sensor"), relation.Float(8e5))
	proposal.MustInsert(0.4, cost.Linear{Rate: 100},
		relation.String_("ZStart"), relation.String_("mobile"), relation.Float(9e5))
	info.MustInsert(0.1, cost.Linear{Rate: 2000},
		relation.String_("ZStart"), relation.Float(1.2e5))
	info.MustInsert(0.9, nil, relation.String_("AcmeSoft"), relation.Float(5e6))

	rbac := policy.NewRBAC()
	rbac.AddRole("secretary")
	rbac.AddRole("manager")
	if err := rbac.AssignUser("sue", "secretary"); err != nil {
		t.Fatal(err)
	}
	if err := rbac.AssignUser("mark", "manager"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	if err := purposes.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	if err := purposes.Add("investment", ""); err != nil {
		t.Fatal(err)
	}
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "secretary", Purpose: "analysis", Beta: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(policy.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.06}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(c, store, solver)
}

const ventureQuery = `
	SELECT DISTINCT CompanyInfo.Company, Income
	FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
	WHERE Funding < 1000000`

func TestSecretarySeesResult(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.PolicyApplied || resp.Threshold != 0.05 {
		t.Fatalf("policy: applied=%v β=%v", resp.PolicyApplied, resp.Threshold)
	}
	// p38 = 0.058 > 0.05: released.
	if resp.Released.Len() != 1 || len(resp.Withheld) != 0 {
		t.Fatalf("released=%d withheld=%d", resp.Released.Len(), len(resp.Withheld))
	}
	if math.Abs(resp.Released.At(0).Confidence-0.058) > 1e-9 {
		t.Fatalf("confidence = %v", resp.Released.At(0).Confidence)
	}
}

func TestManagerBlockedThenImproved(t *testing.T) {
	e := newVentureEngine(t, nil)
	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	// 0.058 < 0.06: withheld, proposal offered.
	if resp.Released.Len() != 0 || len(resp.Withheld) != 1 {
		t.Fatalf("released=%d withheld=%d", resp.Released.Len(), len(resp.Withheld))
	}
	if resp.Proposal == nil {
		t.Fatal("expected an improvement proposal")
	}
	// The cheap fix: raise tuple 03 (cost rate 100) by one δ = cost 10.
	if math.Abs(resp.Proposal.Cost()-10) > 1e-9 {
		t.Fatalf("proposal cost = %v, want 10", resp.Proposal.Cost())
	}
	incs := resp.Proposal.Increments()
	if len(incs) != 1 || math.Abs(incs[0].To-0.5) > 1e-9 {
		t.Fatalf("increments = %+v", incs)
	}

	// The manager accepts; the improvement is applied; re-evaluation
	// releases the row (p38 = 0.065 > 0.06).
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	resp2, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Released.Len() != 1 {
		t.Fatalf("after improvement: released=%d", resp2.Released.Len())
	}
	if math.Abs(resp2.Released.At(0).Confidence-0.065) > 1e-9 {
		t.Fatalf("after improvement: confidence = %v, want 0.065", resp2.Released.At(0).Confidence)
	}
	if resp2.Proposal != nil {
		t.Fatal("no further proposal needed")
	}
}

func TestEvaluateWithAllSolvers(t *testing.T) {
	for _, s := range []strategy.Solver{
		&strategy.Greedy{},
		strategy.NewHeuristic(),
		strategy.NewDivideAndConquer(),
	} {
		e := newVentureEngine(t, s)
		resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if resp.Proposal == nil {
			t.Fatalf("%s: no proposal", s.Name())
		}
		if math.Abs(resp.Proposal.Cost()-10) > 1e-9 {
			t.Errorf("%s: cost %v, want 10", s.Name(), resp.Proposal.Cost())
		}
		if resp.Proposal.Solver() != s.Name() {
			t.Errorf("solver name %q", resp.Proposal.Solver())
		}
	}
}

func TestNoPolicyReleasesEverything(t *testing.T) {
	e := newVentureEngine(t, nil)
	// mark has no policy for "analysis" — open by default.
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "analysis", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PolicyApplied {
		t.Fatal("no policy should apply")
	}
	if resp.Released.Len() != 1 || resp.Proposal != nil {
		t.Fatalf("released=%d proposal=%v", resp.Released.Len(), resp.Proposal)
	}
}

// TestIncrementsComputedOnce pins the memoisation: the audit event, the
// wire and Apply read one sorted slice, not three rebuilt ones.
func TestIncrementsComputedOnce(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil || resp.Proposal == nil {
		t.Fatalf("proposal %v, err %v", resp.Proposal, err)
	}
	a, b := resp.Proposal.Increments(), resp.Proposal.Increments()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatalf("Increments() rebuilt its slice: %p vs %p (len %d)", a, b, len(a))
	}
}

func TestMinFractionZeroSkipsProposal(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal != nil {
		t.Fatal("MinFraction 0 should not trigger planning")
	}
}

func TestBadQuerySurfacesError(t *testing.T) {
	e := newVentureEngine(t, nil)
	if _, err := e.Evaluate(Request{User: "sue", Query: "SELECT nope FROM missing", Purpose: "analysis"}); err == nil {
		t.Fatal("expected query error")
	}
}

func TestApplyValidation(t *testing.T) {
	e := newVentureEngine(t, nil)
	if err := e.Apply(nil); err == nil {
		t.Fatal("nil proposal should fail")
	}
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the plan: Apply must refuse.
	resp.Proposal.plan.Cost = 1
	if err := e.Apply(resp.Proposal); err == nil {
		t.Fatal("tampered proposal should be refused")
	}
}

func TestUnimprovableTuplesAreFrozen(t *testing.T) {
	e := newVentureEngine(t, nil)
	// Freeze tuples 02 and 03 (no cost functions) so only tuple 13
	// could improve; the threshold is then unreachable if 13 is frozen
	// too.
	freezeTables(t, e.Catalog(), "Proposal", "CompanyInfo")
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal != nil {
		t.Fatal("no proposal should exist when nothing is improvable")
	}
}

// freezeTables makes every row of the named tables unimprovable. A
// published version's cost cannot be edited, so each row is replaced by
// a copy without a cost function, all in one transaction.
func freezeTables(t *testing.T, cat *relation.Catalog, names ...string) {
	t.Helper()
	snap := cat.Snapshot()
	defer snap.Release()
	x := cat.Begin()
	for _, name := range names {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Delete(tab, nil); err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.RowsAt(snap) {
			x.MustInsert(tab, row.Confidence(), nil, row.Values()...)
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
}

// releaseRows returns n rows with distinct tuples, all at confidence p.
func releaseRows(n int, p float64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Tuple: relation.NewTuple([]relation.Value{relation.Int(int64(i))}, nil), Confidence: p}
	}
	return rows
}

func TestResponseNeed(t *testing.T) {
	released, _ := Release(releaseRows(2, 1), 0, false)
	r := &Response{
		Released: released,
		Withheld: make([]Row, 3),
	}
	if n := r.Need(Request{MinFraction: 0.5}); n != 1 {
		t.Errorf("need = %d, want ⌈0.5·5⌉−2 = 1", n)
	}
	if n := r.Need(Request{MinFraction: 0.2}); n != 0 {
		t.Errorf("need = %d, want 0", n)
	}
	if n := r.Need(Request{MinFraction: 1.0}); n != 3 {
		t.Errorf("need = %d, want 3", n)
	}
	// θ·n within rounding of an integer counts as that integer: 0.55·100
	// and 0.07·100 evaluate just above 55 and 7, and must not ask for a
	// 56th or an 8th row.
	withheld := make([]Row, 1000)
	for k := 0; k <= 100; k++ {
		theta := float64(k) / 100
		for n := 1; n <= len(withheld); n++ {
			r := &Response{Withheld: withheld[:n]}
			if got, want := r.Need(Request{MinFraction: theta}), (k*n+99)/100; got != want {
				t.Fatalf("θ=%v n=%d: need = %d, want ⌈%d·%d/100⌉ = %d", theta, n, got, k, n, want)
			}
		}
	}
}

// TestReleaseFilter holds the policy filter to Definition 1 over
// generated rows whose confidences sit on and around β (one ulp either
// side), at 0, at 1 and at NaN: every released row clears β strictly,
// every withheld row does not, the two sides partition the input, each
// side is in descending confidence order (NaN last) with the tuple-key
// tie-break, and with no policy applied everything is released.
func TestReleaseFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2000; c++ {
		beta := []float64{0, 0.5, 1, rng.Float64()}[rng.Intn(4)]
		applied := rng.Intn(5) != 0
		in := make([]Row, rng.Intn(40))
		for i := range in {
			conf := []float64{beta, math.Nextafter(beta, 2), math.Nextafter(beta, -1), 0, 1, math.NaN(), rng.Float64()}[rng.Intn(7)]
			// Few distinct keys, so equal confidences tie-break on them.
			key := relation.Int(int64(rng.Intn(5)))
			in[i] = Row{Tuple: relation.NewTuple([]relation.Value{key}, nil), Confidence: conf}
		}
		released, withheld := Release(slices.Clone(in), beta, applied)
		var out []Row
		for i := range released.Len() {
			row := released.At(i)
			if applied && !(row.Confidence > beta) {
				t.Fatalf("β=%v: released a row at confidence %v", beta, row.Confidence)
			}
			out = append(out, row)
		}
		for _, row := range withheld {
			if !applied {
				t.Fatalf("no policy applied, yet a row at %v was withheld", row.Confidence)
			}
			if row.Confidence > beta {
				t.Fatalf("β=%v: withheld a row at confidence %v", beta, row.Confidence)
			}
		}
		checkSorted(t, out[:released.Len()])
		checkSorted(t, withheld)
		out = append(out, withheld...)
		seen := map[*relation.Tuple]Row{}
		for _, row := range in {
			seen[row.Tuple] = row
		}
		if len(out) != len(in) {
			t.Fatalf("%d rows in, %d released + %d withheld", len(in), released.Len(), len(withheld))
		}
		for _, row := range out {
			src, ok := seen[row.Tuple]
			if !ok || math.Float64bits(src.Confidence) != math.Float64bits(row.Confidence) {
				t.Fatalf("row %v at %v is not an input row, or came out twice", row.Tuple, row.Confidence)
			}
			delete(seen, row.Tuple)
		}
	}
}

// checkSorted asserts descending confidence, NaN last, ties broken by
// ascending tuple key.
func checkSorted(t *testing.T, rows []Row) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		aNaN, bNaN := math.IsNaN(a.Confidence), math.IsNaN(b.Confidence)
		tie := aNaN && bNaN || !aNaN && !bNaN && a.Confidence == b.Confidence
		switch {
		case tie && a.Tuple.Key() > b.Tuple.Key():
			t.Fatalf("rows %d, %d at %v: key %q before %q", i-1, i, a.Confidence, a.Tuple.Key(), b.Tuple.Key())
		case !tie && (aNaN || !bNaN && a.Confidence < b.Confidence):
			t.Fatalf("rows %d, %d: confidence %v before %v", i-1, i, a.Confidence, b.Confidence)
		}
	}
}

func TestReportRendering(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Report()
	for _, want := range []string{"confidence", "β=0.06", "withheld 1", "raise tuple", "cost 10"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(resp.String(), "withheld 1") {
		t.Errorf("String() = %q", resp.String())
	}
}

func TestAdvisor(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(time.Minute, 2)
	lead := adv.LeadTime(resp.Proposal)
	if d := (lead - 10*time.Minute).Abs(); d > time.Millisecond {
		t.Errorf("lead time = %v, want ≈10m (cost 10 × 1m)", lead)
	}
	if d := (adv.SerialTime(resp.Proposal) - 10*time.Minute).Abs(); d > time.Millisecond {
		t.Errorf("serial time = %v", adv.SerialTime(resp.Proposal))
	}
	if adv.LeadTime(nil) != 0 || adv.SerialTime(nil) != 0 {
		t.Error("nil proposal should cost no time")
	}
	// Parallelism: two increments of equal cost on two workers take one
	// increment's duration.
	if w := NewAdvisor(time.Minute, 0); w.Workers != 1 {
		t.Error("workers clamp to 1")
	}
}

func TestEvaluateMultiSharedPlan(t *testing.T) {
	e := newVentureEngine(t, nil)
	reqs := []Request{
		{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0},
		{User: "mark", Query: `SELECT DISTINCT Company FROM Proposal WHERE Funding < 1000000`,
			Purpose: "investment", MinFraction: 1.0},
	}
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("responses = %d", len(resps))
	}
	// Query 2's result (Candidate) has confidence 0.58 > 0.06: no need.
	// Query 1 needs improvement; a shared plan must exist.
	if prop == nil {
		t.Fatal("expected a shared proposal")
	}
	if resps[0].Proposal != prop {
		t.Fatal("query 1 should carry the shared proposal")
	}
	if resps[1].Proposal != nil {
		t.Fatal("query 2 needed nothing")
	}
	if err := e.Apply(prop); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Evaluate(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Released.Len() != 1 {
		t.Fatalf("after shared improvement: released = %d", resp.Released.Len())
	}
}

func TestEvaluateMultiBothNeedImprovement(t *testing.T) {
	e := newVentureEngine(t, nil)
	// Tighten the manager policy so both queries fall short.
	if err := e.Policies().Add(policy.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.7}); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0},
		{User: "mark", Query: `SELECT DISTINCT Company FROM Proposal WHERE Funding < 1000000`,
			Purpose: "investment", MinFraction: 1.0},
	}
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if prop == nil {
		t.Fatal("expected a shared proposal")
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
			t.Errorf("query %d still needs %d rows after shared improvement (released %d, withheld %d)",
				i, got, resps[i].Released.Len(), len(resp.Withheld))
		}
	}
}

func TestEvaluateMultiNoNeeds(t *testing.T) {
	e := newVentureEngine(t, nil)
	reqs := []Request{
		{User: "sue", Query: ventureQuery, Purpose: "analysis", MinFraction: 1.0},
	}
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if prop != nil {
		t.Fatal("nothing to improve")
	}
	if resps[0].Released.Len() != 1 {
		t.Fatal("secretary query should release its row")
	}
}

func TestAdvisorLPTScheduling(t *testing.T) {
	// Increments with costs 5, 4, 3, 3 on 2 workers: LPT gives loads
	// (5+3, 4+3) → makespan 8 cost units.
	in := &strategy.Instance{
		Beta:  0.9,
		Delta: 0.1,
		Need:  4,
	}
	// Hand-build a proposal through the engine path: four independent
	// single-tuple results needing a 0.5→0.9+ raise each, with linear
	// rates chosen to produce the desired increment costs.
	cat := relation.NewCatalog()
	tab, err := cat.CreateTable("T", relation.NewSchema(relation.Column{Name: "a", Type: relation.TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	_ = in
	rates := []float64{12.5, 10, 7.5, 7.5} // ×0.4 raise = 5, 4, 3, 3
	for i, rate := range rates {
		tab.MustInsert(0.5, cost.Linear{Rate: rate}, relation.Int(int64(i)))
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
	if err := store.Add(policy.ConfidencePolicy{Role: "r", Purpose: "p", Beta: 0.89}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, store, nil)
	resp, err := e.Evaluate(Request{User: "u", Purpose: "p", MinFraction: 1.0, Query: `SELECT a FROM T`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil {
		t.Fatal("expected proposal")
	}
	incs := resp.Proposal.Increments()
	if len(incs) != 4 {
		t.Fatalf("increments = %d", len(incs))
	}
	adv := NewAdvisor(time.Hour, 2)
	lead := adv.LeadTime(resp.Proposal)
	if d := (lead - 8*time.Hour).Abs(); d > time.Minute {
		t.Fatalf("LPT makespan = %v, want ≈8h", lead)
	}
	serial := adv.SerialTime(resp.Proposal)
	if d := (serial - 15*time.Hour).Abs(); d > time.Minute {
		t.Fatalf("serial = %v, want ≈15h", serial)
	}
	// Enough workers: makespan = longest single increment.
	wide := NewAdvisor(time.Hour, 8)
	if d := (wide.LeadTime(resp.Proposal) - 5*time.Hour).Abs(); d > time.Minute {
		t.Fatalf("8-worker makespan = %v, want ≈5h", wide.LeadTime(resp.Proposal))
	}
}
