package core

import (
	"context"
	"strings"
	"testing"

	"pcqe/internal/obs"
	"pcqe/internal/strategy"
)

func TestParallelWorkersValidation(t *testing.T) {
	e := newVentureEngine(t, nil)
	for _, bad := range []int{-1, -8} {
		req := blockedReq
		req.Budget.Workers = bad
		if _, err := e.Evaluate(req); err == nil || !strings.Contains(err.Error(), "Workers") {
			t.Errorf("Workers = %d accepted: %v", bad, err)
		}
	}
	// 0 (serial, like 1) and explicit widths are valid.
	for _, ok := range []int{0, 1, 4} {
		req := blockedReq
		req.Budget.Workers = ok
		if _, err := e.Evaluate(req); err != nil {
			t.Errorf("Workers = %d rejected: %v", ok, err)
		}
	}
}

// TestParallelDegradedGroupsAudited pins the audit trail for per-group
// degradation: a solve that succeeds overall but with degraded D&C group
// sub-solves must leave a partial AuditDegrade event naming the group
// count, and the proposal must expose it via DegradedGroups.
func TestParallelDegradedGroupsAudited(t *testing.T) {
	e := newVentureEngine(t, &stubSolver{
		solve: func(_ context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			plan, err := solveGreedy(in)
			if err != nil {
				return nil, err
			}
			plan.Degraded = 2
			plan.Partial = true
			return plan, nil
		},
	})
	log := &AuditLog{}
	e.SetAudit(log)
	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil {
		t.Fatal("expected a proposal")
	}
	if got := resp.Proposal.DegradedGroups(); got != 2 {
		t.Fatalf("DegradedGroups = %d, want 2", got)
	}
	deg := log.ByKind(AuditDegrade)
	if len(deg) != 1 {
		t.Fatalf("degrade events = %+v, want exactly one", deg)
	}
	if !deg[0].Partial {
		t.Fatal("group-degradation audit event not marked partial")
	}
	if !strings.Contains(deg[0].Detail, "2 divide-and-conquer group sub-solve") {
		t.Fatalf("event detail = %q, want the degraded group count", deg[0].Detail)
	}
}

// TestParallelNoDegradeAuditWhenClean pins the converse: a clean solve
// emits no degrade event.
func TestParallelNoDegradeAuditWhenClean(t *testing.T) {
	e := newVentureEngine(t, strategy.NewDivideAndConquer())
	log := &AuditLog{}
	e.SetAudit(log)
	if _, err := e.Evaluate(blockedReq); err != nil {
		t.Fatal(err)
	}
	if deg := log.ByKind(AuditDegrade); len(deg) != 0 {
		t.Fatalf("clean solve produced degrade events: %+v", deg)
	}
}

// TestParallelWorkersGauge pins the engine.solver.workers gauge: it
// reports the width the request's solve ran at.
func TestParallelWorkersGauge(t *testing.T) {
	e := newVentureEngine(t, strategy.NewDivideAndConquer())
	m := obs.New()
	e.SetMetrics(m)
	for _, w := range []int{3, 1} {
		req := blockedReq
		req.Budget.Workers = w
		if _, err := e.Evaluate(req); err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot().Gauges["engine.solver.workers"]; got != int64(w) {
			t.Fatalf("engine.solver.workers = %d after Workers=%d request", got, w)
		}
	}
}
