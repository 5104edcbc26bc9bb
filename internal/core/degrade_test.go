package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
	"pcqe/internal/strategy"
)

// stubSolver scripts the strategy layer's outcome so the engine's
// degradation handling can be tested in isolation.
type stubSolver struct {
	solve func(ctx context.Context, in *strategy.Instance) (*strategy.Plan, error)
}

func (s *stubSolver) Name() string { return "stub" }

// SolveContext puts the budget's wall clock on the context, as the real
// solvers' boundary does; the scripts honor nothing else of the budget.
func (s *stubSolver) SolveContext(ctx context.Context, in *strategy.Instance, b strategy.Budget) (*strategy.Plan, error) {
	if b.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
		defer cancel()
	}
	return s.solve(ctx, in)
}

// solveGreedy is the uninterrupted greedy plan the scripts hand back.
func solveGreedy(in *strategy.Instance) (*strategy.Plan, error) {
	return (&strategy.Greedy{}).SolveContext(context.Background(), in, strategy.Budget{})
}

var blockedReq = Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}

func TestDegradeWithoutIncumbent(t *testing.T) {
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceDeadline}
	e := newVentureEngine(t, &stubSolver{
		solve: func(context.Context, *strategy.Instance) (*strategy.Plan, error) {
			return nil, budgetErr
		},
	})
	log := &AuditLog{}
	e.SetAudit(log)
	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatalf("budget exhaustion must not fail the request: %v", err)
	}
	if !errors.Is(resp.Degraded, error(budgetErr)) {
		t.Fatalf("Degraded = %v, want the solver's budget error", resp.Degraded)
	}
	if resp.Proposal != nil {
		t.Fatal("no incumbent means no proposal")
	}
	if len(resp.Withheld) != 1 {
		t.Fatal("query results must still be returned")
	}
	events := log.ByKind(AuditDegrade)
	if len(events) != 1 || events[0].Partial {
		t.Fatalf("degrade audit events = %+v", events)
	}
	if !strings.Contains(events[0].String(), "degrade") {
		t.Fatalf("event renders as %q", events[0].String())
	}
	if !strings.Contains(resp.Report(), "planning degraded") {
		t.Fatalf("report missing degradation notice:\n%s", resp.Report())
	}
}

func TestDegradeWithPartialIncumbent(t *testing.T) {
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceSteps}
	e := newVentureEngine(t, &stubSolver{
		solve: func(_ context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			plan, err := solveGreedy(in)
			if err != nil {
				return nil, err
			}
			plan.Partial = true
			return plan, budgetErr
		},
	})
	log := &AuditLog{}
	e.SetAudit(log)
	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatal("Degraded not set")
	}
	if resp.Proposal == nil || !resp.Proposal.Partial() {
		t.Fatalf("proposal = %+v, want a partial proposal", resp.Proposal)
	}
	if math.Abs(resp.Proposal.Cost()-10) > 1e-9 {
		t.Fatalf("partial proposal cost = %v", resp.Proposal.Cost())
	}
	rep := resp.Report()
	if !strings.Contains(rep, "partial improvement proposal") || !strings.Contains(rep, "planning degraded") {
		t.Fatalf("report missing partial markers:\n%s", rep)
	}
	deg := log.ByKind(AuditDegrade)
	if len(deg) != 1 || !deg[0].Partial {
		t.Fatalf("degrade events = %+v", deg)
	}
	prop := log.ByKind(AuditPropose)
	if len(prop) != 1 || !prop[0].Partial {
		t.Fatalf("propose events = %+v", prop)
	}
	if !strings.Contains(prop[0].String(), "partial") {
		t.Fatalf("propose event renders as %q", prop[0].String())
	}
	// A feasible partial plan is still applicable.
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatalf("applying feasible partial plan: %v", err)
	}
}

func TestDegradeOnSolverPanic(t *testing.T) {
	panicErr := &strategy.SolverPanicError{Solver: "stub", Fingerprint: "x", Value: "boom"}
	e := newVentureEngine(t, &stubSolver{
		solve: func(context.Context, *strategy.Instance) (*strategy.Plan, error) {
			return nil, panicErr
		},
	})
	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatalf("recovered solver panic must not fail the request: %v", err)
	}
	if !errors.Is(resp.Degraded, error(panicErr)) {
		t.Fatalf("Degraded = %v", resp.Degraded)
	}
}

// TestStructuralSolverErrorStillFails: an error that is neither a budget
// stop nor a recovered panic fails the request. The solver's refusal of
// a formula beyond lineage.DefaultSharedLimit is one — it comes back
// from the compile, not out of solveRecover.
func TestStructuralSolverErrorStillFails(t *testing.T) {
	tooShared := &strategy.Instance{Beta: 0.6, Delta: 0.1, Need: 1}
	var terms []*lineage.Expr
	for n := 0; n < 25; n++ {
		var vs [3]*lineage.Expr
		for i := range vs {
			id := lineage.Var(len(tooShared.Base) + 1)
			tooShared.Base = append(tooShared.Base, strategy.BaseTuple{Var: id, P: 0.2, Cost: cost.Linear{Rate: 10}})
			vs[i] = lineage.NewVar(id)
		}
		terms = append(terms, lineage.And(vs[0], vs[1]), lineage.And(vs[0], vs[2]))
	}
	tooShared.Results = []strategy.Result{{Formula: lineage.Or(terms...)}}
	_, refusal := strategy.NewDivideAndConquer().SolveContext(context.Background(), tooShared, strategy.Budget{})
	if !errors.Is(refusal, lineage.ErrTooManyShared) {
		t.Fatalf("solve of a 25-shared formula: err = %v", refusal)
	}
	for _, solverErr := range []error{errors.New("solver misconfigured"), refusal} {
		e := newVentureEngine(t, &stubSolver{
			solve: func(context.Context, *strategy.Instance) (*strategy.Plan, error) {
				return nil, solverErr
			},
		})
		if _, err := e.Evaluate(blockedReq); !errors.Is(err, solverErr) {
			t.Fatalf("structural errors must surface, not degrade: solver %v, request %v", solverErr, err)
		}
	}
}

func TestRequestTimeoutReachesSolver(t *testing.T) {
	e := newVentureEngine(t, &stubSolver{
		solve: func(ctx context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			// Simulate a long solve that honors cancellation.
			select {
			case <-ctx.Done():
				return nil, &strategy.BudgetExceededError{
					Solver: "stub", Resource: strategy.ResourceDeadline, Err: ctx.Err(),
				}
			case <-time.After(5 * time.Second):
				return solveGreedy(in)
			}
		},
	})
	req := blockedReq
	req.Budget.Timeout = 20 * time.Millisecond
	start := time.Now()
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("request did not respect its timeout (%v elapsed)", time.Since(start))
	}
	if resp.Degraded == nil || !errors.Is(resp.Degraded, context.DeadlineExceeded) {
		t.Fatalf("Degraded = %v, want deadline exhaustion", resp.Degraded)
	}
}

// TestEvaluateMultiTimeoutReachesSharedSolve: the requests' Timeout
// bounds the shared solve too, not only each query's own evaluation. A
// solver that blocks until its context is done holds the batch for the
// merged 20 ms, not for its full 5 s; every response that wanted
// improvement degrades with the deadline and the event is journaled.
func TestEvaluateMultiTimeoutReachesSharedSolve(t *testing.T) {
	e := overlapEngine(t)
	e.solver = &stubSolver{
		solve: func(ctx context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			select {
			case <-ctx.Done():
				return nil, &strategy.BudgetExceededError{
					Solver: "stub", Resource: strategy.ResourceDeadline, Err: ctx.Err(),
				}
			case <-time.After(5 * time.Second):
				return solveGreedy(in)
			}
		},
	}
	log := &AuditLog{}
	e.SetAudit(log)
	reqs := multiReqs()
	reqs[0].Budget.Timeout = 10 * time.Millisecond
	reqs[1].Budget.Timeout = 20 * time.Millisecond
	start := time.Now()
	resps, prop, err := e.EvaluateMulti(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("shared solve did not respect the requests' timeout (%v elapsed)", time.Since(start))
	}
	if prop != nil {
		t.Fatalf("proposal %+v from a solve that timed out without an incumbent", prop)
	}
	for i, resp := range resps {
		if !errors.Is(resp.Degraded, context.DeadlineExceeded) {
			t.Errorf("response %d Degraded = %v, want deadline exhaustion", i, resp.Degraded)
		}
	}
	if deg := log.ByKind(AuditDegrade); len(deg) != 1 {
		t.Fatalf("degrade audit events = %+v, want exactly one", deg)
	}
}

func TestEvaluateContextCanceled(t *testing.T) {
	e := newVentureEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateContext(ctx, blockedReq); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMinFractionValidation(t *testing.T) {
	e := newVentureEngine(t, nil)
	for _, bad := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		req := blockedReq
		req.MinFraction = bad
		if _, err := e.Evaluate(req); err == nil {
			t.Errorf("MinFraction %v accepted", bad)
		}
	}
}

func TestRealSolverDeadlineEndToEnd(t *testing.T) {
	// With a real solver and an effectively-zero planning window, the
	// engine still returns the query results and records the
	// degradation. A pre-expired context deadline exercises the same
	// path deterministically.
	e := newVentureEngine(t, strategy.NewDivideAndConquer())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	// Query evaluation refuses to start under an expired context.
	if _, err := e.EvaluateContext(ctx, blockedReq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline error before query start", err)
	}
}
