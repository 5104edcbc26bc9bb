package strategy

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// paperInstance is the running example as an optimization instance:
// result 38 with lineage (t2 ∨ t3) ∧ t13, threshold 0.06, raising t2 by
// 0.1 costs 100 and raising t3 by 0.1 costs 10; t13 is expensive.
func paperInstance() *Instance {
	return &Instance{
		Base: []BaseTuple{
			{Var: 2, P: 0.3, Cost: cost.Linear{Rate: 1000}},
			{Var: 3, P: 0.4, Cost: cost.Linear{Rate: 100}},
			{Var: 13, P: 0.1, Cost: cost.Linear{Rate: 10000}},
		},
		Results: []Result{
			{ID: 38, Formula: lineage.And(lineage.Or(lineage.NewVar(2), lineage.NewVar(3)), lineage.NewVar(13))},
		},
		Beta:  0.06,
		Need:  1,
		Delta: 0.1,
	}
}

// solve runs s on in with nothing to interrupt it: a background
// context and the zero budget.
func solve(s Solver, in *Instance) (*Plan, error) {
	return s.SolveContext(context.Background(), in, Budget{})
}

// widened runs its solver on a fixed worker-pool width wherever the
// budget names none: the parallel configuration of sweeps that treat
// every solver alike.
type widened struct {
	Solver
	workers int
}

func (w widened) SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error) {
	if b.Workers == 0 {
		b.Workers = w.workers
	}
	return w.Solver.SolveContext(ctx, in, b)
}

func solvers() []Solver {
	return []Solver{
		&Greedy{},
		&Greedy{SkipRefinement: true},
		&Greedy{Incremental: true},
		NewHeuristic(),
		&Heuristic{}, // naive
		NewDivideAndConquer(),
	}
}

func TestPaperExampleAllSolvers(t *testing.T) {
	for _, s := range solvers() {
		in := paperInstance()
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: invalid plan: %v", s.Name(), err)
		}
		// The cheap fix is raising t3 from 0.4 to 0.5 (cost 10): the
		// paper's chosen alternative. All solvers should find it.
		if math.Abs(plan.Cost-10) > 1e-9 {
			t.Errorf("%s: cost = %v, want 10 (raise t3 by one δ)", s.Name(), plan.Cost)
		}
		if math.Abs(plan.NewP[1]-0.5) > 1e-9 {
			t.Errorf("%s: t3 raised to %v, want 0.5", s.Name(), plan.NewP[1])
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"zero delta", func(in *Instance) { in.Delta = 0 }},
		{"beta > 1", func(in *Instance) { in.Beta = 1.5 }},
		{"beta zero", func(in *Instance) { in.Beta = 0 }},
		{"need negative", func(in *Instance) { in.Need = -1 }},
		{"need too large", func(in *Instance) { in.Need = 5 }},
		{"bad confidence", func(in *Instance) { in.Base[0].P = 1.5 }},
		{"max below p", func(in *Instance) { in.Base[0].MaxP = 0.1 }},
		{"nil cost", func(in *Instance) { in.Base[0].Cost = nil }},
		{"duplicate var", func(in *Instance) { in.Base[1].Var = 2 }},
		{"nil formula", func(in *Instance) { in.Results[0].Formula = nil }},
		{"unknown var", func(in *Instance) {
			in.Results[0].Formula = lineage.NewVar(99)
		}},
		{"non-monotone", func(in *Instance) {
			in.Results[0].Formula = lineage.Not(lineage.NewVar(2))
		}},
	}
	for _, c := range cases {
		in := paperInstance()
		c.mutate(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := paperInstance().Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	in := paperInstance()
	in.Base[2].MaxP = 0.1 // t13 stuck at 0.1: max F = 1·0.1 = 0.1 ≥ 0.06 is fine...
	in.Beta = 0.5         // ...so raise the bar beyond reach.
	for _, s := range solvers() {
		if _, err := solve(s, in); err != ErrInfeasible {
			t.Errorf("%s: err = %v, want ErrInfeasible", s.Name(), err)
		}
	}
	bf := &BruteForce{}
	if _, err := solve(bf, in); err != ErrInfeasible {
		t.Errorf("brute force: err = %v, want ErrInfeasible", err)
	}
}

func TestAlreadySatisfiedIsFree(t *testing.T) {
	in := paperInstance()
	in.Beta = 0.05 // p38 = 0.058 ≥ 0.05 already
	for _, s := range solvers() {
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.Cost != 0 {
			t.Errorf("%s: cost = %v, want 0", s.Name(), plan.Cost)
		}
		if len(plan.Satisfied) != 1 {
			t.Errorf("%s: satisfied = %v", s.Name(), plan.Satisfied)
		}
	}
}

// multiInstance builds an instance with several results and shared base
// tuples, exercising partial-need planning.
func multiInstance() *Instance {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	return &Instance{
		Base: []BaseTuple{
			{Var: 1, P: 0.2, Cost: cost.Linear{Rate: 100}},
			{Var: 2, P: 0.2, Cost: cost.Linear{Rate: 10}},
			{Var: 3, P: 0.2, Cost: cost.Linear{Rate: 1000}},
			{Var: 4, P: 0.2, Cost: cost.Linear{Rate: 50}},
			{Var: 5, P: 0.3, Cost: cost.Linear{Rate: 20}},
		},
		Results: []Result{
			{ID: 0, Formula: lineage.Or(v(1), v(2))},                    // cheap via t2
			{ID: 1, Formula: lineage.And(v(2), v(5))},                   // shares t2
			{ID: 2, Formula: lineage.And(v(3), v(4))},                   // expensive
			{ID: 3, Formula: lineage.Or(lineage.And(v(4), v(5)), v(2))}, // shares t2, t4, t5
		},
		Beta:  0.6,
		Need:  2,
		Delta: 0.1,
	}
}

func TestMultiResultAllSolversMatchOracle(t *testing.T) {
	oracle, err := solve(&BruteForce{}, multiInstance())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{NewHeuristic(), &Heuristic{}} {
		in := multiInstance()
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Exhaustive searches must be optimal.
		if plan.Cost > oracle.Cost+1e-9 {
			t.Errorf("%s: cost %v > optimal %v", s.Name(), plan.Cost, oracle.Cost)
		}
	}
	for _, s := range []Solver{&Greedy{}, NewDivideAndConquer()} {
		in := multiInstance()
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Approximations may exceed the optimum but never beat it.
		if plan.Cost < oracle.Cost-1e-9 {
			t.Errorf("%s: cost %v beats the optimum %v — oracle or verifier broken", s.Name(), plan.Cost, oracle.Cost)
		}
	}
}

func TestGreedyTwoPhaseNeverWorseThanOnePhase(t *testing.T) {
	for _, in := range []*Instance{paperInstance(), multiInstance()} {
		one, err := solve(&Greedy{SkipRefinement: true}, in)
		if err != nil {
			t.Fatal(err)
		}
		two, err := solve(&Greedy{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if two.Cost > one.Cost+1e-9 {
			t.Errorf("two-phase cost %v > one-phase %v", two.Cost, one.Cost)
		}
	}
}

func TestGreedyIncrementalMatchesRescan(t *testing.T) {
	for _, mk := range []func() *Instance{paperInstance, multiInstance} {
		a, err := solve(&Greedy{}, mk())
		if err != nil {
			t.Fatal(err)
		}
		b, err := solve(&Greedy{Incremental: true}, mk())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Cost-b.Cost) > 1e-9 {
			t.Fatalf("incremental cost %v != rescan cost %v", b.Cost, a.Cost)
		}
		for i := range a.NewP {
			if math.Abs(a.NewP[i]-b.NewP[i]) > 1e-9 {
				t.Fatalf("plans diverge at tuple %d: %v vs %v", i, a.NewP[i], b.NewP[i])
			}
		}
	}
}

func TestHeuristicVariantsAllOptimal(t *testing.T) {
	oracle, err := solve(&BruteForce{}, multiInstance())
	if err != nil {
		t.Fatal(err)
	}
	variants := []*Heuristic{
		{},
		{UseH1: true},
		{UseH2: true},
		{UseH3: true},
		{UseH4: true},
		{UseH1: true, UseH2: true, UseH3: true, UseH4: true},
		{UseH1: true, UseH2: true, UseH3: true, UseH4: true, GreedyBound: true},
	}
	for i, h := range variants {
		in := multiInstance()
		plan, err := solve(h, in)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if math.Abs(plan.Cost-oracle.Cost) > 1e-9 {
			t.Errorf("variant %d: cost %v, optimal %v — pruning removed the optimum", i, plan.Cost, oracle.Cost)
		}
	}
}

func TestHeuristicPruningReducesNodes(t *testing.T) {
	in := multiInstance()
	naive, err := solve(&Heuristic{}, in)
	if err != nil {
		t.Fatal(err)
	}
	all, err := solve(&Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true}, multiInstance())
	if err != nil {
		t.Fatal(err)
	}
	if all.Nodes >= naive.Nodes {
		t.Errorf("all-heuristics nodes %d >= naive nodes %d", all.Nodes, naive.Nodes)
	}
}

// islandInstance has two genuinely disconnected result islands:
// {0,1} over t1,t2 and {2} over t3,t4.
func islandInstance() *Instance {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	return &Instance{
		Base: []BaseTuple{
			{Var: 1, P: 0.2, Cost: cost.Linear{Rate: 100}},
			{Var: 2, P: 0.2, Cost: cost.Linear{Rate: 10}},
			{Var: 3, P: 0.2, Cost: cost.Linear{Rate: 1000}},
			{Var: 4, P: 0.2, Cost: cost.Linear{Rate: 50}},
		},
		Results: []Result{
			{ID: 0, Formula: lineage.Or(v(1), v(2))},
			{ID: 1, Formula: lineage.And(v(1), v(2))},
			{ID: 2, Formula: lineage.And(v(3), v(4))},
		},
		Beta:  0.6,
		Need:  2,
		Delta: 0.1,
	}
}

func TestPartition(t *testing.T) {
	// multiInstance is fully connected through t2/t4/t5: one group.
	groups := Partition(multiInstance(), 1, 0)
	if len(groups) != 1 || len(groups[0].Results) != 4 {
		t.Fatalf("multiInstance groups = %v, want one group of 4", groups)
	}
	// islandInstance has two components.
	in := islandInstance()
	groups = Partition(in, 1, 0)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (%v)", len(groups), groups)
	}
	var sizes []int
	total := 0
	for _, g := range groups {
		sizes = append(sizes, len(g.Results))
		total += len(g.Results)
	}
	if total != len(in.Results) {
		t.Errorf("partition loses results: %v", sizes)
	}
	if !(sizes[0] == 2 && sizes[1] == 1) && !(sizes[0] == 1 && sizes[1] == 2) {
		t.Errorf("unexpected group sizes %v", sizes)
	}
}

func TestPartitionGammaLimitsMerging(t *testing.T) {
	in := multiInstance()
	// Pairwise weights: (0,1)=1 via t2, (0,3)=1 via t2, (1,3)=2 via
	// t2+t5, (2,3)=1 via t4. γ=2: 1&3 merge (weight 2); then the merged
	// group connects to 0 with summed weight 1+1=2 ≥ γ, so 0 joins too;
	// 2 stays out (weight 1 < 2).
	groups := Partition(in, 2, 0)
	if len(groups) != 2 {
		t.Fatalf("γ=2 groups = %d, want 2", len(groups))
	}
	// γ=3 prevents everything except the summed-weight cascade: 1&3
	// never merge (2 < 3), so all four results stay separate.
	groups = Partition(in, 3, 0)
	if len(groups) != 4 {
		t.Fatalf("γ=3 groups = %d, want 4", len(groups))
	}
}

func TestPartitionMaxResultsCap(t *testing.T) {
	in := multiInstance()
	groups := Partition(in, 1, 2)
	for _, g := range groups {
		if len(g.Results) > 2 {
			t.Errorf("group exceeds cap: %v", g.Results)
		}
	}
}

func TestPartitionDisjointCover(t *testing.T) {
	in := multiInstance()
	groups := Partition(in, 1, 0)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, ri := range g.Results {
			if seen[ri] {
				t.Fatalf("result %d in two groups", ri)
			}
			seen[ri] = true
		}
	}
	if len(seen) != len(in.Results) {
		t.Fatalf("cover = %d results, want %d", len(seen), len(in.Results))
	}
}

func TestVerifyCatchesBadPlans(t *testing.T) {
	in := paperInstance()
	good, err := solve(&Greedy{}, in)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if err := in.Verify(&Plan{NewP: []float64{0.5}}); err == nil {
		t.Error("short plan should fail")
	}
	// Lowering a tuple.
	bad := &Plan{NewP: append([]float64{}, good.NewP...), Cost: good.Cost}
	bad.NewP[0] = 0.1
	if err := in.Verify(bad); err == nil {
		t.Error("lowered tuple should fail")
	}
	// Above maximum.
	bad = &Plan{NewP: append([]float64{}, good.NewP...), Cost: good.Cost}
	bad.NewP[0] = 1.1
	if err := in.Verify(bad); err == nil {
		t.Error("raised above max should fail")
	}
	// Wrong cost.
	bad = &Plan{NewP: append([]float64{}, good.NewP...), Cost: good.Cost + 99}
	if err := in.Verify(bad); err == nil {
		t.Error("wrong cost should fail")
	}
	// Not satisfying.
	in2 := paperInstance()
	noop := &Plan{NewP: []float64{0.3, 0.4, 0.1}, Cost: 0}
	if err := in2.Verify(noop); err == nil {
		t.Error("unsatisfying plan should fail")
	}
}

func TestDncNeedSpansGroups(t *testing.T) {
	// Need=3 forces D&C to pull results from both islands.
	in := multiInstance()
	in.Need = 3
	plan, err := solve(NewDivideAndConquer(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Satisfied) < 3 {
		t.Errorf("satisfied = %v", plan.Satisfied)
	}
}

func TestDncGammaVariants(t *testing.T) {
	for _, gamma := range []int{1, 2, 5} {
		in := multiInstance()
		d := &DivideAndConquer{Gamma: gamma, Tau: 8}
		plan, err := solve(d, in)
		if err != nil {
			t.Fatalf("γ=%d: %v", gamma, err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("γ=%d: %v", gamma, err)
		}
	}
	// γ<1 collapses to 1.
	in := multiInstance()
	plan, err := solve(&DivideAndConquer{Gamma: 0}, in)
	if err != nil || in.Verify(plan) != nil {
		t.Fatalf("γ=0: %v", err)
	}
}

func TestMaxPRespected(t *testing.T) {
	in := paperInstance()
	in.Base[1].MaxP = 0.45 // t3 cannot reach 0.5; solvers must find another way
	for _, s := range solvers() {
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.NewP[1] > 0.45+1e-12 {
			t.Errorf("%s: t3 exceeds its max: %v", s.Name(), plan.NewP[1])
		}
	}
}

func TestNeedZeroIsTrivial(t *testing.T) {
	in := paperInstance()
	in.Need = 0
	for _, s := range solvers() {
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.Cost != 0 {
			t.Errorf("%s: cost = %v", s.Name(), plan.Cost)
		}
	}
}

func TestDncParallelMatchesSequentialValidity(t *testing.T) {
	for _, mk := range []func() *Instance{paperInstance, multiInstance, islandInstance} {
		seq := &DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}
		par := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, runtime.GOMAXPROCS(0)}
		sp, err := solve(seq, mk())
		if err != nil {
			t.Fatal(err)
		}
		in := mk()
		pp, err := solve(par, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(pp); err != nil {
			t.Fatalf("parallel plan invalid: %v", err)
		}
		// Groups are independent here (needs computed from the initial
		// state in both modes), so costs must match exactly.
		if math.Abs(sp.Cost-pp.Cost) > 1e-9 {
			t.Fatalf("parallel cost %v != sequential %v", pp.Cost, sp.Cost)
		}
	}
}

func TestSolverNames(t *testing.T) {
	names := map[string]Solver{
		"greedy":             &Greedy{},
		"greedy-1phase":      &Greedy{SkipRefinement: true},
		"greedy-incremental": &Greedy{Incremental: true},
		"heuristic":          NewHeuristic(),
		"divide-and-conquer": NewDivideAndConquer(),
		"brute-force":        &BruteForce{},
	}
	for want, s := range names {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// splitGroupInstance is two results sharing t2; under a one-result group
// cap each is its own group.
func splitGroupInstance() *Instance {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	return &Instance{
		Base: []BaseTuple{
			{Var: 1, P: 0.2, Cost: cost.Linear{Rate: 10}},
			{Var: 2, P: 0.2, Cost: cost.Linear{Rate: 10}},
			{Var: 3, P: 0.2, Cost: cost.Linear{Rate: 10}},
		},
		Results: []Result{
			{ID: 0, Formula: lineage.And(v(1), v(2))},
			{ID: 1, Formula: lineage.And(v(2), v(3))},
		},
		Beta:  0.6,
		Need:  2,
		Delta: 0.1,
	}
}

// degradedDnC is serial divide-and-conquer whose first group's greedy
// panics at its first phase-1 step. That group degrades and contributes
// nothing, so the combination under-delivers and the driver's top-up and
// refinement finish the plan; finish and refine count their steps
// through the SiteDnCFinish and SiteDnCRefine probes.
type degradedDnC struct {
	*DivideAndConquer
	finish, refine int
}

func (d *degradedDnC) SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error) {
	fault.Reset()
	fault.Enable()
	defer fault.Reset()
	fired := false
	fault.Register(SiteGreedyPhase1, func() {
		if !fired {
			fired = true
			panic("injected group fault")
		}
	})
	d.finish, d.refine = 0, 0
	fault.Register(SiteDnCFinish, func() { d.finish++ })
	fault.Register(SiteDnCRefine, func() { d.refine++ })
	return d.DivideAndConquer.SolveContext(ctx, in, b)
}

func TestDncSplitGroupFallback(t *testing.T) {
	// A group holds every tuple of its results, so only a degraded or
	// skipped group under-delivers: with the first group's greedy
	// panicking, its result is left to the driver's top-up.
	in := splitGroupInstance()
	d := &degradedDnC{DivideAndConquer: &DivideAndConquer{Gamma: 1, Tau: 0, MaxGroupResults: 1}}
	plan, err := solve(d, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(plan); err != nil {
		t.Fatal(err)
	}
	if plan.Degraded != 1 || !plan.Partial {
		t.Fatalf("Degraded = %d, Partial = %v; want one degraded group and a partial plan", plan.Degraded, plan.Partial)
	}
	if d.finish == 0 {
		t.Fatal("the top-up never ran")
	}
	if d.refine == 0 {
		t.Fatal("the refinement never ran")
	}
}

func TestGreedyZeroGainFallsBackToCheapestStep(t *testing.T) {
	// One result t1 ∧ t2 with t2 at zero confidence: raising t1 alone has
	// zero marginal gain (derivative multiplies by p(t2)=0), so the
	// cheapest-step fallback must kick in and still find a plan.
	in := &Instance{
		Base: []BaseTuple{
			{Var: 1, P: 0.5, Cost: cost.Linear{Rate: 10}},
			{Var: 2, P: 0, Cost: cost.Linear{Rate: 10}},
		},
		Results: []Result{
			{ID: 0, Formula: lineage.And(lineage.NewVar(1), lineage.NewVar(2))},
		},
		Beta:  0.49,
		Need:  1,
		Delta: 0.1,
	}
	plan, err := solve(&Greedy{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(plan); err != nil {
		t.Fatal(err)
	}
}
