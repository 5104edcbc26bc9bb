package core

// Regression tests for request-scoped engine behavior under concurrent
// sessions (the pcqed server shares ONE engine): solver budgets arrive
// per request instead of per process, span attributes charge a request
// with its own cache work only, and a canceled context (a disconnected
// client) stops the lineage phase instead of riding it to completion.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

func TestRequestSolverBudgetValidation(t *testing.T) {
	e := newVentureEngine(t, nil)
	// The request asks for no improvement, so no solve would ever see the
	// budget: the engine rejects it up front, naming the field.
	for field, b := range map[string]strategy.Budget{
		"Timeout": {Timeout: -time.Second}, "Workers": {Workers: -1},
		"MaxNodes": {MaxNodes: -1}, "MaxPivots": {MaxPivots: -2}, "MaxSteps": {MaxSteps: -3},
	} {
		req := Request{User: "sue", Query: ventureQuery, Purpose: "analysis", Budget: b}
		if _, err := e.EvaluateContext(context.Background(), req); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: err = %v, want a rejection naming the field", field, err)
		}
	}
}

// TestRequestSolverBudgetThreadsToSolver pins that Request.Budget
// reaches the strategy layer: a one-step allowance cannot complete the
// venture improvement plan, so the response must degrade with a typed
// *strategy.BudgetExceededError naming the steps resource.
func TestRequestSolverBudgetThreadsToSolver(t *testing.T) {
	e := newVentureEngine(t, nil)
	req := Request{
		User: "mark", Query: ventureQuery, Purpose: "investment",
		MinFraction: 1.0, Budget: strategy.Budget{MaxSteps: 1},
	}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatal("MaxSteps=1 did not degrade improvement planning; request budget not threaded to the solver")
	}
	var bx *strategy.BudgetExceededError
	if !errors.As(resp.Degraded, &bx) {
		t.Fatalf("Degraded = %v, want *strategy.BudgetExceededError", resp.Degraded)
	}
	if bx.Resource != strategy.ResourceSteps {
		t.Fatalf("exhausted resource = %q, want %q", bx.Resource, strategy.ResourceSteps)
	}
	// An unbudgeted request on the same engine still solves in full:
	// the budget is request state, not engine state.
	resp, err = e.Evaluate(Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != nil || resp.Proposal == nil {
		t.Fatalf("unbudgeted follow-up degraded=%v proposal=%v", resp.Degraded, resp.Proposal)
	}
}

// TestSpanAttrsAreRequestScoped runs many identical evaluations
// concurrently against one engine and asserts every response's span
// attributes account for exactly that request's cache activity. Before
// the per-call attribution fix the engine computed these attributes as
// before/after deltas of the process-wide cache counters, so one
// request's span absorbed every concurrent session's hits and pivots.
func TestSpanAttrsAreRequestScoped(t *testing.T) {
	e := newVentureEngine(t, nil)
	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := e.Evaluate(Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
				if err != nil {
					errCh <- err
					return
				}
				eval := resp.Timings.Find("eval")
				if got := eval.Attr("plan_cache_hits") + eval.Attr("plan_cache_misses"); got != 1 {
					errCh <- fmt.Errorf("plan cache attribution: hits+misses = %d, want exactly 1 per request", got)
					return
				}
				lin := resp.Timings.Find("lineage")
				rows := lin.Attr("rows")
				if got := lin.Attr("readonce_rows") + lin.Attr("conf_cache_hits") + lin.Attr("conf_cache_misses"); got != rows {
					errCh <- fmt.Errorf("conf cache attribution: readonce_rows+hits+misses = %d, want rows = %d", got, rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestLineagePhaseHonorsCancellation pins the disconnected-client
// contract: a context canceled while the engine is computing result
// confidences must abort the request with the context error instead of
// finishing the #P-hard lineage phase for a caller that is gone.
func TestLineagePhaseHonorsCancellation(t *testing.T) {
	e := newVentureEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer fault.Reset()
	fault.Register("core.lineage.row", func() { cancel() })
	fault.Enable()
	resp, err := e.EvaluateContext(ctx, Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if resp != nil {
		t.Fatalf("canceled lineage phase still produced a response: %v", resp)
	}
}

func TestAuditEventKindJSONRoundTrip(t *testing.T) {
	for k := AuditEvaluate; k <= AuditRollback; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + k.String() + `"`; string(data) != want {
			t.Fatalf("marshal %v = %s, want %s", k, data, want)
		}
		var back AuditEventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %v → %v", k, back)
		}
	}
	if _, err := json.Marshal(AuditEventKind(99)); err == nil {
		t.Fatal("unknown kind marshaled without error")
	}
	var k AuditEventKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatal("unknown kind name unmarshaled without error")
	}
	// A journaled event round-trips with its kind readable by name, not
	// as a bare iota ordinal.
	ev := AuditEvent{Seq: 7, Kind: AuditDegrade, User: "mark", Detail: "deadline"}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Kind":"degrade"`) {
		t.Fatalf("event JSON carries no kind name: %s", data)
	}
	var back AuditEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != AuditDegrade || back.Seq != 7 {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestLineagePhaseRejectsTooManySharedVariables pins the refusal of a
// result formula beyond exact evaluation: EvaluateContext returns an
// error wrapping lineage.ErrTooManyShared (it used to panic inside the
// confidence cache), with the request's span tree closed and no
// snapshot leaked.
func TestLineagePhaseRejectsTooManySharedVariables(t *testing.T) {
	e := newVentureEngine(t, nil)
	tracer := &spanLog{}
	e.SetTracer(tracer)
	cat := e.Catalog()
	info, err := cat.Table("CompanyInfo")
	if err != nil {
		t.Fatal(err)
	}
	// Each new company has income 1, and the self-join below pairs every
	// one with every other: the DISTINCT folds the pairs into one row in
	// which each CompanyInfo variable recurs once per partner, so
	// factoring the disjunction leaves all of them shared.
	x := cat.Begin()
	for i := 0; i <= lineage.DefaultSharedLimit; i++ {
		name := relation.String_(fmt.Sprintf("Wide%d", i))
		if _, err := x.Insert(info, []relation.Value{name, relation.Float(1)}, 0.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	resp, err := e.EvaluateContext(context.Background(), Request{User: "sue", Purpose: "analysis", Query: `
		SELECT DISTINCT a.Income
		FROM CompanyInfo a JOIN CompanyInfo b ON a.Income = b.Income
		WHERE a.Income = 1`})
	if !errors.Is(err, lineage.ErrTooManyShared) {
		t.Fatalf("err = %v, want one wrapping lineage.ErrTooManyShared", err)
	}
	if resp != nil {
		t.Fatalf("refused request still produced a response: %v", resp)
	}
	if open := cat.OpenSnapshots(); open != 0 {
		t.Fatalf("%d snapshots still open after the refusal", open)
	}
	spans := tracer.spans
	if len(spans) != 1 || !spans[0].Ended() {
		t.Fatalf("request span not closed on the refusal path: %v", spans)
	}
}
