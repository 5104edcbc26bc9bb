package strategy

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
)

// contextSolverMakers builds fresh instances of every solver
// configuration the runtime tests exercise.
func contextSolverMakers() []func() Solver {
	return []func() Solver{
		func() Solver { return &Greedy{} },
		func() Solver { return &Greedy{Incremental: true} },
		func() Solver { return NewHeuristic() },
		func() Solver { return NewDivideAndConquer() },
		func() Solver { return widened{NewDivideAndConquer(), runtime.GOMAXPROCS(0)} },
		func() Solver { return &BruteForce{} },
	}
}

// adversarialInstance builds a ring of AND pairs under one OR: every
// base tuple is shared between two conjuncts, so each probability
// evaluation enumerates 2^n Shannon pivot assignments, each polling
// the budget through the pivot hook. A fine δ grid and a high β force
// hundreds of such evaluations, so an uninterrupted solve takes orders
// of magnitude longer than the test deadline — which is exactly what
// the anytime runtime must handle.
func adversarialInstance(n int) *Instance {
	in := &Instance{Beta: 0.95, Delta: 0.02, Need: 1}
	for i := 0; i < n; i++ {
		in.Base = append(in.Base, BaseTuple{
			Var:  lineage.Var(i + 1),
			P:    0.3,
			Cost: cost.Linear{Rate: 1 + float64(i)},
		})
	}
	terms := make([]*lineage.Expr, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		terms[i] = lineage.And(lineage.NewVar(lineage.Var(i+1)), lineage.NewVar(lineage.Var(j+1)))
	}
	in.Results = []Result{{ID: 0, Formula: lineage.Or(terms...)}}
	return in
}

// sweepInstance is a moderate multi-result instance with shared
// variables (pivot enumeration), multiple greedy steps, a non-trivial
// partition and a refinement phase — it drives the solvers through
// every probe site the fault sweep can reach.
func sweepInstance() *Instance {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	in := &Instance{Beta: 0.6, Delta: 0.1, Need: 3}
	rates := []float64{40, 10, 25, 15, 30, 20}
	for i, r := range rates {
		in.Base = append(in.Base, BaseTuple{Var: lineage.Var(i + 1), P: 0.3, Cost: cost.Linear{Rate: r}})
	}
	in.Results = []Result{
		{ID: 0, Formula: lineage.Or(lineage.And(v(1), v(2)), lineage.And(v(2), v(3)))},
		{ID: 1, Formula: lineage.And(v(3), v(4))},
		{ID: 2, Formula: lineage.Or(lineage.And(v(4), v(5)), lineage.And(v(5), v(6)))},
		{ID: 3, Formula: lineage.And(v(1), v(6))},
	}
	return in
}

func isBudgetErr(err error) bool {
	var bx *BudgetExceededError
	return errors.As(err, &bx)
}

func TestDeadlineReturnsPromptly(t *testing.T) {
	const timeout = 30 * time.Millisecond
	// Grace covers checkpoint granularity plus scheduler noise under
	// -race; it is far below what an uninterrupted solve would take
	// (many seconds of 2^18-pivot evaluations).
	const grace = 1500 * time.Millisecond
	for _, mk := range contextSolverMakers() {
		s := mk()
		if _, ok := s.(*BruteForce); ok {
			continue // refuses the instance by size before any work
		}
		in := adversarialInstance(14)
		start := time.Now()
		plan, err := s.SolveContext(context.Background(), in, Budget{Timeout: timeout})
		elapsed := time.Since(start)
		if elapsed > timeout+grace {
			t.Errorf("%s: returned after %v, budget was %v", s.Name(), elapsed, timeout)
		}
		if err == nil {
			t.Errorf("%s: expected a budget error on the adversarial instance", s.Name())
			continue
		}
		if !isBudgetErr(err) {
			t.Errorf("%s: err = %T %v, want *BudgetExceededError", s.Name(), err, err)
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: error should unwrap to context.DeadlineExceeded, got %v", s.Name(), err)
		}
		if plan != nil {
			if !plan.Partial {
				t.Errorf("%s: incumbent plan not tagged Partial", s.Name())
			}
			if verr := in.Verify(plan); verr != nil {
				t.Errorf("%s: incumbent fails Verify: %v", s.Name(), verr)
			}
		}
	}
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mk := range contextSolverMakers() {
		s := mk()
		plan, err := s.SolveContext(ctx, sweepInstance(), Budget{})
		if err == nil {
			t.Errorf("%s: expected an error under a canceled context", s.Name())
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want to unwrap context.Canceled", s.Name(), err)
		}
		if plan != nil {
			if verr := sweepInstance().Verify(plan); verr != nil {
				t.Errorf("%s: plan fails Verify: %v", s.Name(), verr)
			}
		}
	}
}

// probeSite is the fault-injection site in s's own search (for
// divide-and-conquer the driver's, since a group's is isolated at the
// group boundary).
func probeSite(s Solver) string {
	switch s := s.(type) {
	case widened:
		return probeSite(s.Solver)
	case *Greedy:
		return SiteGreedyPhase1
	case *Heuristic:
		return SiteHeuristicDFS
	case *DivideAndConquer:
		return SiteDnCCombine
	default:
		return SiteBruteForce
	}
}

// TestSolveBoundaryContract is the contract of the one boundary every
// built-in solver runs behind: whichever solver, each way a solve can
// end early yields the same typed outcome, and the solve span closes
// over that outcome.
func TestSolveBoundaryContract(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	invalid := sweepInstance()
	invalid.Delta = 0
	infeasible := sweepInstance()
	for i := range infeasible.Base {
		infeasible.Base[i].MaxP = infeasible.Base[i].P
	}
	cases := []struct {
		name      string
		ctx       context.Context
		in        *Instance
		b         Budget
		panicking bool
		// check judges the outcome; a non-nil plan has already passed Verify.
		check func(t *testing.T, s Solver, in *Instance, plan *Plan, err error)
	}{
		{name: "pre-cancelled context", ctx: canceled, in: sweepInstance(),
			check: func(t *testing.T, s Solver, _ *Instance, plan *Plan, err error) {
				var bx *BudgetExceededError
				if !errors.As(err, &bx) || bx.Resource != ResourceCanceled || bx.Solver != s.Name() || !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want %s's cancellation", err, s.Name())
				}
				if plan != nil {
					t.Errorf("plan %+v from a solve that never started", plan)
				}
			}},
		{name: "MaxNodes 1", ctx: context.Background(), in: sweepInstance(), b: Budget{MaxNodes: 1},
			check: func(t *testing.T, s Solver, _ *Instance, plan *Plan, err error) {
				// Solvers that expand no nodes finish; the others stop on the
				// node counter, with or without an incumbent.
				var bx *BudgetExceededError
				if err != nil && (!errors.As(err, &bx) || bx.Resource != ResourceNodes || bx.Solver != s.Name()) {
					t.Errorf("err = %v, want nil or %s's node exhaustion", err, s.Name())
				}
				if plan == nil && err == nil {
					t.Error("nil plan and nil error")
				}
				if plan != nil && plan.Partial != (err != nil || plan.Degraded > 0) {
					t.Errorf("Partial = %v with err %v and %d degraded groups", plan.Partial, err, plan.Degraded)
				}
			}},
		{name: "injected panic", ctx: context.Background(), in: sweepInstance(), panicking: true,
			check: func(t *testing.T, s Solver, in *Instance, plan *Plan, err error) {
				var px *SolverPanicError
				if !errors.As(err, &px) || px.Solver != s.Name() || px.Fingerprint != in.Fingerprint() || len(px.Stack) == 0 {
					t.Errorf("err = %v, want %s's *SolverPanicError with fingerprint and stack", err, s.Name())
				}
				if plan != nil {
					t.Errorf("plan %+v survived a panic", plan)
				}
			}},
		{name: "invalid instance", ctx: context.Background(), in: invalid,
			check: func(t *testing.T, s Solver, in *Instance, plan *Plan, err error) {
				if want := in.Validate(); want == nil || err == nil || err.Error() != want.Error() || plan != nil {
					t.Errorf("plan %+v, err %v; want no plan and the validation error %v", plan, err, want)
				}
			}},
		{name: "infeasible instance", ctx: context.Background(), in: infeasible,
			check: func(t *testing.T, _ Solver, _ *Instance, plan *Plan, err error) {
				if err != ErrInfeasible || plan != nil {
					t.Errorf("plan %+v, err %v; want no plan and ErrInfeasible", plan, err)
				}
			}},
	}
	defer fault.Reset()
	for _, c := range cases {
		for _, mk := range contextSolverMakers() {
			s := mk()
			t.Run(c.name+"/"+s.Name(), func(t *testing.T) {
				fault.Reset()
				if c.panicking {
					fault.Enable()
					fault.Register(probeSite(s), func() { panic("injected") })
				}
				root := obs.NewSpan("strategy")
				plan, err := SolveContext(obs.ContextWithSpan(c.ctx, root), s, c.in, c.b)
				if plan != nil {
					if verr := c.in.Verify(plan); verr != nil {
						t.Errorf("plan fails Verify: %v", verr)
					}
				}
				c.check(t, s, c.in, plan, err)

				spans := root.Children()
				if len(spans) != 1 || spans[0].Name() != "solve:"+s.Name() || !spans[0].Ended() {
					t.Fatalf("want exactly one closed solve:%s span:\n%s", s.Name(), root.Tree())
				}
				span := spans[0]
				if status := span.Status(); (err == nil) != (status == "") || (err != nil && status != err.Error()) {
					t.Errorf("span status %q for err %v", status, err)
				}
				if want := plan != nil && plan.Partial; (span.Attr("partial") == 1) != want {
					t.Errorf("span partial = %d for plan %+v", span.Attr("partial"), plan)
				}
				var bx *BudgetExceededError
				if errors.As(err, &bx) && (span.Attr("nodes") < bx.Nodes || span.Attr("pivots") < bx.Pivots || span.Attr("steps") < bx.Steps) {
					t.Errorf("span counters %v behind the error's snapshot %+v", span.Attrs(), bx)
				}
			})
		}
	}
}

// TestBudgetValidate: a negative field is rejected by name — by Validate
// and by every solver's SolveContext, before any work — and nothing else
// is.
func TestBudgetValidate(t *testing.T) {
	for _, c := range []struct {
		b     Budget
		field string // "" = valid
	}{
		{Budget{}, ""},
		{Budget{Timeout: time.Second, MaxNodes: 1, MaxPivots: 2, MaxSteps: 3, Workers: 4}, ""},
		{Budget{Timeout: -time.Nanosecond}, "Timeout"},
		{Budget{MaxNodes: -1}, "MaxNodes"},
		{Budget{MaxPivots: -1}, "MaxPivots"},
		{Budget{MaxSteps: -1}, "MaxSteps"},
		{Budget{Workers: -1}, "Workers"},
		{Budget{MaxNodes: 5, MaxSteps: -2, Workers: 3}, "MaxSteps"},
	} {
		err := c.b.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%+v: rejected: %v", c.b, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: err = %v, want one naming %s", c.b, err, c.field)
		}
		for _, mk := range contextSolverMakers() {
			s := mk()
			plan, serr := SolveContext(context.Background(), s, paperInstance(), c.b)
			if plan != nil || serr == nil || serr.Error() != err.Error() {
				t.Errorf("%s under %+v: plan %+v, err %v; want no plan and %v", s.Name(), c.b, plan, serr, err)
			}
		}
	}
}

func TestBudgetMaxNodes(t *testing.T) {
	// Without the greedy seed there is no incumbent before the DFS
	// finds its first solution, so a tiny node budget yields a bare
	// typed error.
	h := &Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true}
	plan, err := h.SolveContext(context.Background(), sweepInstance(), Budget{MaxNodes: 1})
	var bx *BudgetExceededError
	if !errors.As(err, &bx) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if bx.Resource != ResourceNodes {
		t.Fatalf("resource = %q, want %q", bx.Resource, ResourceNodes)
	}
	if bx.Solver != h.Name() {
		t.Fatalf("solver = %q", bx.Solver)
	}
	if plan != nil {
		t.Fatalf("no incumbent can exist after one node, got %+v", plan)
	}
}

func TestBudgetMaxNodesAnytimeIncumbent(t *testing.T) {
	// With the greedy seed the incumbent exists before the DFS starts:
	// exhausting the node budget returns it, tagged Partial.
	in := paperInstance()
	plan, err := NewHeuristic().SolveContext(context.Background(), in, Budget{MaxNodes: 1})
	var bx *BudgetExceededError
	if !errors.As(err, &bx) || bx.Resource != ResourceNodes {
		t.Fatalf("err = %v, want nodes budget error", err)
	}
	if plan == nil {
		t.Fatal("expected the greedy-seed incumbent")
	}
	if !plan.Partial {
		t.Fatal("incumbent not tagged Partial")
	}
	if verr := in.Verify(plan); verr != nil {
		t.Fatalf("incumbent fails Verify: %v", verr)
	}
	if math.Abs(plan.Cost-10) > 1e-9 {
		t.Fatalf("incumbent cost = %v, want the greedy solution's 10", plan.Cost)
	}
}

// TestHeuristicNodeBudget: a greedy-seeded search cut off after one node
// still hands back a plan that verifies on multiInstance; without the
// seed there is nothing to hand back.
func TestHeuristicNodeBudget(t *testing.T) {
	in := multiInstance()
	plan, err := (&Heuristic{GreedyBound: true}).SolveContext(context.Background(), in, Budget{MaxNodes: 1})
	var bx *BudgetExceededError
	if !errors.As(err, &bx) || bx.Resource != ResourceNodes {
		t.Fatalf("err = %v, want nodes budget error", err)
	}
	if plan == nil || !plan.Partial {
		t.Fatalf("plan = %+v, want the Partial greedy-seed incumbent", plan)
	}
	if err := in.Verify(plan); err != nil {
		t.Fatal(err)
	}
	if plan, err := (&Heuristic{}).SolveContext(context.Background(), multiInstance(), Budget{MaxNodes: 1}); plan != nil || !errors.As(err, &bx) {
		t.Fatalf("unseeded search after one node: plan %+v, err %v; want no plan and a budget error", plan, err)
	}
}

func TestBudgetMaxSteps(t *testing.T) {
	// paperInstance needs one phase-1 step; the first phase-2 probe step
	// busts MaxSteps=1, so greedy returns the feasible phase-1 snapshot.
	in := paperInstance()
	plan, err := (&Greedy{}).SolveContext(context.Background(), in, Budget{MaxSteps: 1})
	var bx *BudgetExceededError
	if !errors.As(err, &bx) || bx.Resource != ResourceSteps {
		t.Fatalf("err = %v, want steps budget error", err)
	}
	if plan == nil || !plan.Partial {
		t.Fatalf("plan = %+v, want a Partial phase-1 snapshot", plan)
	}
	if verr := in.Verify(plan); verr != nil {
		t.Fatalf("snapshot fails Verify: %v", verr)
	}
}

func TestBudgetMaxPivots(t *testing.T) {
	// sweepInstance's formulas have shared variables, so every
	// evaluation runs Shannon pivots; a one-pivot budget dies during the
	// initial feasibility evaluation, before any incumbent exists.
	plan, err := (&Greedy{}).SolveContext(context.Background(), sweepInstance(), Budget{MaxPivots: 1})
	var bx *BudgetExceededError
	if !errors.As(err, &bx) || bx.Resource != ResourcePivots {
		t.Fatalf("err = %v, want pivots budget error", err)
	}
	if bx.Pivots < 1 {
		t.Fatalf("pivot counter = %d", bx.Pivots)
	}
	if plan != nil {
		t.Fatalf("no incumbent can exist yet, got %+v", plan)
	}
}

// TestBudgetMaxPivotsSharedResult: a result sharing 17 variables — more
// than the solvers used to compile, fewer than the limit — evaluates
// under the pivot hook like any other, so a pivot budget below its 2^17
// assignments interrupts the solve. It is chainInstance's only
// shared-variable result.
func TestBudgetMaxPivotsSharedResult(t *testing.T) {
	for _, mk := range contextSolverMakers() {
		s := mk()
		_, err := s.SolveContext(context.Background(), chainInstance(), Budget{MaxPivots: 1 << 12})
		var bx *BudgetExceededError
		if !errors.As(err, &bx) || bx.Resource != ResourcePivots || bx.Pivots <= 1<<12 {
			t.Errorf("%s: err = %v, want the pivot budget exceeded", s.Name(), err)
		}
	}
}

// TestSolveTooManySharedIsPlainError: a formula beyond
// lineage.DefaultSharedLimit (the join DNF ∨ₙᵢ(Sₙ ∧ Oₙᵢ) over 25
// suppliers × 2 orders) is refused when the solve compiles it, with the
// compile error naming the result — not a panic out of an evaluation
// that solveRecover dresses as a *SolverPanicError.
func TestSolveTooManySharedIsPlainError(t *testing.T) {
	in := &Instance{Beta: 0.6, Delta: 0.1, Need: 1}
	v := func(p float64) *lineage.Expr {
		id := lineage.Var(len(in.Base) + 1)
		in.Base = append(in.Base, BaseTuple{Var: id, P: p, Cost: cost.Linear{Rate: 10}})
		return lineage.NewVar(id)
	}
	in.Results = append(in.Results, Result{ID: 0, Formula: lineage.And(v(0.5), v(0.5))})
	var terms []*lineage.Expr
	for n := 0; n < 25; n++ {
		s := v(0.1)
		terms = append(terms, lineage.And(s, v(0.2)), lineage.And(s, v(0.2)))
	}
	in.Results = append(in.Results, Result{ID: 1, Formula: lineage.Or(terms...)})
	for _, mk := range contextSolverMakers() {
		s := mk()
		_, err := solve(s, in)
		_, errCtx := s.SolveContext(context.Background(), in, Budget{MaxNodes: 1 << 20})
		for _, err := range []error{err, errCtx} {
			var px *SolverPanicError
			if !errors.Is(err, lineage.ErrTooManyShared) || errors.As(err, &px) || !strings.Contains(err.Error(), "result 1") {
				t.Errorf("%s: err = %v, want a plain error wrapping ErrTooManyShared for result 1", s.Name(), err)
			}
		}
	}
}

// TestFaultSweepCancellation injects a context cancellation at every
// probe site, for every solver, and asserts the anytime contract: no
// panic escapes, the error (if any) is a typed *BudgetExceededError,
// any returned plan passes Verify, and no goroutine leaks.
func TestFaultSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, site := range ProbeSites() {
		for _, mk := range contextSolverMakers() {
			s := mk()
			in := sweepInstance()
			ctx, cancel := context.WithCancel(context.Background())
			fault.Reset()
			fault.Enable()
			fault.Register(site, func() { cancel() })
			plan, err := s.SolveContext(ctx, in, Budget{})
			hit := fault.Hits(site) > 0
			fault.Reset()
			cancel()
			if !hit {
				continue // this solver never passes this site
			}
			if err != nil && !isBudgetErr(err) {
				t.Errorf("%s @ %s: err = %T %v, want *BudgetExceededError or nil", s.Name(), site, err, err)
			}
			if plan != nil {
				if verr := in.Verify(plan); verr != nil {
					t.Errorf("%s @ %s: plan fails Verify: %v", s.Name(), site, verr)
				}
			}
			if plan == nil && err == nil {
				t.Errorf("%s @ %s: nil plan and nil error", s.Name(), site)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before sweep, %d after", before, g)
	}
}

// TestFaultSweepPanic injects a real panic at every probe site and
// asserts it never escapes a solver boundary: the result is either a
// typed *SolverPanicError or (for D&C, whose group boundary isolates
// the fault) a degraded-but-valid plan.
func TestFaultSweepPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, site := range ProbeSites() {
		for _, mk := range contextSolverMakers() {
			s := mk()
			in := sweepInstance()
			fault.Reset()
			fault.Enable()
			first := true
			fault.Register(site, func() {
				if first {
					first = false
					panic("injected fault at " + site)
				}
			})
			plan, err := func() (p *Plan, e error) {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s @ %s: panic escaped the solver boundary: %v", s.Name(), site, r)
					}
				}()
				return s.SolveContext(context.Background(), in, Budget{})
			}()
			hit := fault.Hits(site) > 0
			fault.Reset()
			if !hit {
				continue
			}
			var px *SolverPanicError
			switch {
			case err == nil:
				// D&C isolated the fault; the plan must record it.
				if plan == nil {
					t.Errorf("%s @ %s: nil plan and nil error after injected panic", s.Name(), site)
				} else if plan.Degraded == 0 {
					t.Errorf("%s @ %s: fault absorbed without Degraded accounting", s.Name(), site)
				}
			case errors.As(err, &px):
				if px.Fingerprint == "" {
					t.Errorf("%s @ %s: panic error missing instance fingerprint", s.Name(), site)
				}
			case isBudgetErr(err), errors.Is(err, ErrInfeasible):
				// A degraded group can make the remaining combination
				// infeasible, or the panic surfaced via a group error
				// that the driver converted. Acceptable.
			default:
				t.Errorf("%s @ %s: err = %T %v", s.Name(), site, err, err)
			}
			if plan != nil {
				if verr := in.Verify(plan); verr != nil {
					t.Errorf("%s @ %s: plan fails Verify: %v", s.Name(), site, verr)
				}
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before sweep, %d after", before, g)
	}
}

func TestDnCParallelPanicDegradesGracefully(t *testing.T) {
	d := widened{NewDivideAndConquer(), runtime.GOMAXPROCS(0)}
	in := sweepInstance()
	fault.Reset()
	fault.Enable()
	defer fault.Reset()
	fault.Register(SiteGreedyPhase1, func() { panic("injected group fault") })
	plan, err := d.SolveContext(context.Background(), in, Budget{})
	if err != nil {
		t.Fatalf("driver must absorb group panics, got %v", err)
	}
	if plan == nil {
		t.Fatal("expected a degraded plan")
	}
	if plan.Degraded < 1 {
		t.Fatalf("Degraded = %d, want ≥ 1", plan.Degraded)
	}
	if !plan.Partial {
		t.Fatal("degraded plan not tagged Partial")
	}
	if verr := in.Verify(plan); verr != nil {
		t.Fatalf("degraded plan fails Verify: %v", verr)
	}
}

func TestGreedyPanicBecomesTypedError(t *testing.T) {
	fault.Reset()
	fault.Enable()
	defer fault.Reset()
	fault.Register(SiteGreedyPhase1, func() { panic("injected") })
	plan, err := (&Greedy{}).SolveContext(context.Background(), sweepInstance(), Budget{})
	var px *SolverPanicError
	if !errors.As(err, &px) {
		t.Fatalf("err = %T %v, want *SolverPanicError", err, err)
	}
	if px.Solver != "greedy" || px.Fingerprint == "" || len(px.Stack) == 0 {
		t.Fatalf("panic error incomplete: %+v", px)
	}
	if plan != nil {
		t.Fatal("no plan should survive a phase-1 panic")
	}
}

func TestAnytimeCostMonotonic(t *testing.T) {
	// A partial (interrupted) plan never costs less than the completed
	// solve of the same deterministic algorithm: refinement only removes
	// cost.
	r := rand.New(rand.NewSource(211))
	checked := 0
	for i := 0; i < 60; i++ {
		in := randomInstance(r)
		full, err := solve(&Greedy{}, in)
		if err != nil {
			continue
		}
		for _, maxSteps := range []int{1, 2, 3, 5, 8} {
			p, perr := (&Greedy{}).SolveContext(context.Background(), in, Budget{MaxSteps: maxSteps})
			if p == nil {
				continue // interrupted before feasibility
			}
			if verr := in.Verify(p); verr != nil {
				t.Fatalf("budgeted plan fails Verify: %v", verr)
			}
			eps := 1e-9 * (1 + full.Cost)
			if perr != nil {
				checked++
				if p.Cost < full.Cost-eps {
					t.Fatalf("partial plan (steps=%d) cost %v below completed cost %v", maxSteps, p.Cost, full.Cost)
				}
			} else if math.Abs(p.Cost-full.Cost) > eps {
				t.Fatalf("uninterrupted budgeted solve diverged: %v vs %v", p.Cost, full.Cost)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no partial plans were produced; budgets too loose for the test to mean anything")
	}
}

func TestBudgetedSolversPropertySafety(t *testing.T) {
	// Random instances through every solver under random tiny budgets:
	// the outcome is always one of {complete plan, partial plan +
	// budget error, bare budget error, infeasible} and every returned
	// plan verifies.
	r := rand.New(rand.NewSource(223))
	for i := 0; i < 120; i++ {
		in := randomInstance(r)
		b := Budget{
			MaxNodes:  r.Intn(20),
			MaxSteps:  r.Intn(10),
			MaxPivots: r.Intn(200),
		}
		for _, mk := range contextSolverMakers() {
			s := mk()
			plan, err := s.SolveContext(context.Background(), in, b)
			switch {
			case err == nil, errors.Is(err, ErrInfeasible), isBudgetErr(err):
			default:
				t.Fatalf("%s budget=%+v: unexpected error %T %v", s.Name(), b, err, err)
			}
			if plan != nil {
				if verr := in.Verify(plan); verr != nil {
					t.Fatalf("%s budget=%+v: plan fails Verify: %v", s.Name(), b, verr)
				}
			}
			if plan == nil && err == nil {
				t.Fatalf("%s budget=%+v: nil plan and nil error", s.Name(), b)
			}
		}
	}
}

func FuzzSolveBudget(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(1), uint8(1))
	f.Add(int64(7), uint8(5), uint8(2), uint8(50))
	f.Add(int64(-3), uint8(200), uint8(100), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nodes, steps, pivots uint8) {
		in := randomInstance(rand.New(rand.NewSource(seed)))
		b := Budget{MaxNodes: int(nodes), MaxSteps: int(steps), MaxPivots: int(pivots)}
		for _, mk := range contextSolverMakers() {
			s := mk()
			plan, err := s.SolveContext(context.Background(), in, b)
			switch {
			case err == nil, errors.Is(err, ErrInfeasible), isBudgetErr(err):
			default:
				t.Fatalf("%s: unexpected error %T %v", s.Name(), err, err)
			}
			if plan != nil {
				if verr := in.Verify(plan); verr != nil {
					t.Fatalf("%s: plan fails Verify: %v", s.Name(), verr)
				}
			}
		}
	})
}
