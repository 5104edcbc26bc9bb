package core

import (
	"context"
	"errors"
	"testing"

	"pcqe/internal/strategy"
)

// Regression for the silent multi-query degradation hole: a shared
// solve cut short by budget/deadline used to fall back to "no shared
// plan" without marking the responses degraded, without salvaging the
// anytime incumbent, and without an audit event — an unreviewable
// policy decision.

func multiReqs() []Request {
	return []Request{
		{User: "u", Purpose: "p", MinFraction: 0.5,
			Query: `SELECT V FROM Items WHERE Kind = 'a'`},
		{User: "u", Purpose: "p", MinFraction: 0.75,
			Query: `SELECT V FROM Items WHERE Kind = 'b'`},
	}
}

func TestEvaluateMultiDegradedSolveIsAudited(t *testing.T) {
	e := overlapEngine(t)
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceDeadline}
	e.solver = &stubSolver{
		solve: func(context.Context, *strategy.Instance) (*strategy.Plan, error) {
			return nil, budgetErr
		},
	}
	log := &AuditLog{}
	e.SetAudit(log)

	resps, prop, err := e.EvaluateMulti(multiReqs())
	if err != nil {
		t.Fatalf("budget exhaustion must not fail the request batch: %v", err)
	}
	if prop != nil {
		t.Fatal("no incumbent means no shared proposal")
	}
	for i, resp := range resps {
		if !errors.Is(resp.Degraded, error(budgetErr)) {
			t.Errorf("response %d Degraded = %v, want the solver's budget error", i, resp.Degraded)
		}
	}
	deg := log.ByKind(AuditDegrade)
	if len(deg) != 1 {
		t.Fatalf("degrade audit events = %+v, want exactly one", deg)
	}
	if deg[0].Partial {
		t.Fatal("no incumbent survived; the degrade event must not claim a partial plan")
	}
	if deg[0].User != "u" || deg[0].Purpose != "p" {
		t.Fatalf("degrade event identity = %q/%q", deg[0].User, deg[0].Purpose)
	}
}

func TestEvaluateMultiSalvagesPartialIncumbent(t *testing.T) {
	e := overlapEngine(t)
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceSteps}
	e.solver = &stubSolver{
		solve: func(_ context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			plan, err := solveGreedy(in)
			if err != nil {
				return nil, err
			}
			plan.Partial = true
			return plan, budgetErr
		},
	}
	log := &AuditLog{}
	e.SetAudit(log)

	resps, prop, err := e.EvaluateMulti(multiReqs())
	if err != nil {
		t.Fatal(err)
	}
	if prop == nil || !prop.Partial() {
		t.Fatalf("proposal = %+v, want a salvaged partial shared proposal", prop)
	}
	for i, resp := range resps {
		if resp.Degraded == nil {
			t.Errorf("response %d not marked degraded", i)
		}
		if resp.Proposal != prop {
			t.Errorf("response %d missing the shared proposal", i)
		}
	}
	deg := log.ByKind(AuditDegrade)
	if len(deg) != 1 || !deg[0].Partial {
		t.Fatalf("degrade events = %+v, want one carrying a partial plan", deg)
	}
	props := log.ByKind(AuditPropose)
	if len(props) != 1 || !props[0].Partial {
		t.Fatalf("propose events = %+v, want one partial shared proposal", props)
	}
	// A feasible partial shared plan is still applicable.
	if err := e.Apply(prop); err != nil {
		t.Fatalf("applying salvaged partial plan: %v", err)
	}
}

func TestEvaluateMultiCleanSolveRecordsPropose(t *testing.T) {
	e := overlapEngine(t)
	log := &AuditLog{}
	e.SetAudit(log)
	_, prop, err := e.EvaluateMulti(multiReqs())
	if err != nil {
		t.Fatal(err)
	}
	if prop == nil || prop.Partial() {
		t.Fatalf("proposal = %+v, want a full shared proposal", prop)
	}
	if deg := log.ByKind(AuditDegrade); len(deg) != 0 {
		t.Fatalf("clean solve produced degrade events: %+v", deg)
	}
	props := log.ByKind(AuditPropose)
	if len(props) != 1 || props[0].Partial {
		t.Fatalf("propose events = %+v, want one full proposal", props)
	}
	if props[0].Cost != prop.Cost() {
		t.Fatalf("audited cost %v != proposal cost %v", props[0].Cost, prop.Cost())
	}
}
