package core

import (
	"math"
	"testing"

	"pcqe/internal/lineage"
	"pcqe/internal/strategy"
)

// TestMVCCDoubleApplyBillsOnce applies two proposals of the same query
// read at one version. The second finds every target met: it writes
// nothing, commits no version and journals a no-op apply costing 0, so
// the journal bills the improvement once.
func TestMVCCDoubleApplyBillsOnce(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	cat := e.Catalog()
	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	var props []*Proposal
	for range 2 {
		resp, err := e.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Proposal == nil {
			t.Fatal("expected a proposal")
		}
		props = append(props, resp.Proposal)
	}
	if props[0].ReadVersion() != props[1].ReadVersion() {
		t.Fatalf("proposals read versions %d and %d, want one", props[0].ReadVersion(), props[1].ReadVersion())
	}
	before := cat.Version()
	first, err := e.ApplyOutcome(props[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.ApplyOutcome(props[1])
	if err != nil {
		t.Fatal(err)
	}
	if v := cat.Version(); v != before+1 {
		t.Fatalf("version %d after the two applies, want %d: exactly one commits", v, before+1)
	}
	if first.CommitVersion != before+1 || first.Cost != props[0].Cost() || len(first.Increments) == 0 {
		t.Fatalf("first apply = commit %d cost %g with %d increments, want commit %d cost %g",
			first.CommitVersion, first.Cost, len(first.Increments), before+1, props[0].Cost())
	}
	if second.CommitVersion != 0 || second.Cost != 0 || len(second.Increments) != 0 {
		t.Fatalf("second apply = commit %d cost %g with %d increments, want a no-op", second.CommitVersion, second.Cost, len(second.Increments))
	}
	applies := log.ByKind(AuditApply)
	if len(applies) != 2 {
		t.Fatalf("journal holds %d apply events, want 2", len(applies))
	}
	if got := log.TotalImprovementSpend(); got != props[0].Cost() {
		t.Fatalf("spend = %g, want %g: the improvement was written once", got, props[0].Cost())
	}
	if len(log.ByKind(AuditRollback)) != 0 {
		t.Fatal("a no-op apply journaled a rollback: it failed nothing")
	}
}

// TestMVCCOverlappingApplyReplaysWhatCommitted applies two proposals
// read at one version, built directly: A raises tuple 3 to 0.7, B
// targets tuple 3 at 0.5 and tuple 4 at 0.5. After A then B the
// catalog holds 0.7 for tuple 3 (B's lower target is skipped), and the
// journal must say so: its replay reads 0.7, and the spend counts only
// what was written.
func TestMVCCOverlappingApplyReplaysWhatCommitted(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	cat := e.Catalog()
	snap := cat.Snapshot()
	defer snap.Release()
	propose := func(targets ...float64) *Proposal {
		in, plan := &strategy.Instance{Beta: 0.5}, &strategy.Plan{}
		for i := 0; i < len(targets); i += 2 {
			v, to := lineage.Var(targets[i]), targets[i+1]
			b, ok := snap.BaseTupleByVar(v)
			if !ok {
				t.Fatalf("no tuple %d", v)
			}
			in.Base = append(in.Base, strategy.BaseTuple{Var: v, P: b.Confidence(), MaxP: 1, Cost: b.Cost()})
			plan.NewP = append(plan.NewP, to)
			plan.Cost += b.Cost().Increment(b.Confidence(), to)
		}
		return &Proposal{instance: in, plan: plan, user: "mark", purpose: "investment", readVersion: snap.Version()}
	}
	a, b := propose(3, 0.7), propose(3, 0.5, 4, 0.5)
	if err := e.Apply(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(b); err != nil {
		t.Fatal(err)
	}
	now := cat.AssignmentAt(cat.Version())
	if p3, p4 := now.ProbOf(3), now.ProbOf(4); p3 != 0.7 || p4 != 0.5 {
		t.Fatalf("catalog holds p(3) = %g, p(4) = %g; want 0.7 and 0.5", p3, p4)
	}
	replay := log.ReplayConfidences(cat.Version())
	if replay[3] != 0.7 || replay[4] != 0.5 {
		t.Fatalf("replay reads p(3) = %g, p(4) = %g; want what the catalog holds, 0.7 and 0.5", replay[3], replay[4])
	}
	// Tuple 3 costs 100 per unit (0.4 → 0.7: 30), tuple 4 2000 (0.1 → 0.5: 800).
	if got := log.TotalImprovementSpend(); math.Abs(got-830) > 1e-9 {
		t.Fatalf("spend = %g, want 830: B's tuple-3 increment was never written", got)
	}
	applies := log.ByKind(AuditApply)
	if len(applies) != 2 || len(applies[1].Increments) != 1 || applies[1].Increments[0].Var != 4 {
		t.Fatalf("B journaled %+v, want its one written increment, tuple 4", applies[len(applies)-1].Increments)
	}
	if inc := applies[1].Increments[0]; inc.From != 0.1 || inc.To != 0.5 || math.Abs(inc.Cost-800) > 1e-9 {
		t.Fatalf("B's increment = %+v, want 0.1 → 0.5 at cost 800", inc)
	}
}
