package strategy

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// mediumInstance builds a Table-4-shaped workload without importing
// internal/workload (which depends on this package): n base tuples with
// confidence U[0.05,0.15] and mixed cost families, and n/per results,
// each an OR-rooted tree over per distinct sampled tuples. With
// withSharing, every third result duplicates one of its variables into
// a second clause, forcing the Shannon path.
func mediumInstance(seed int64, n, per int, withSharing bool) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: 0.6, Delta: 0.1}
	for i := 0; i < n; i++ {
		fam := []cost.Function{
			cost.Linear{Rate: 1 + 99*r.Float64()},
			cost.Quadratic{A: 50 * r.Float64(), B: 1 + 50*r.Float64()},
			cost.Logarithmic{Scale: 10 + 40*r.Float64(), Rate: 1 + 4*r.Float64()},
		}[r.Intn(3)]
		in.Base = append(in.Base, BaseTuple{
			Var:  lineage.Var(i + 1),
			P:    0.05 + 0.1*r.Float64(),
			Cost: fam,
		})
	}
	nResults := n / per
	if nResults < 1 {
		nResults = 1
	}
	for ri := 0; ri < nResults; ri++ {
		perm := r.Perm(n)[:per]
		leaves := make([]*lineage.Expr, per)
		for i, p := range perm {
			leaves[i] = lineage.NewVar(lineage.Var(p + 1))
		}
		half := per / 2
		f := lineage.Or(lineage.And(leaves[:half]...), lineage.And(leaves[half:]...))
		if withSharing && ri%3 == 0 {
			// Re-use the first variable in an extra clause: one shared
			// variable, still monotone.
			f = lineage.Or(f, lineage.And(leaves[0], leaves[per-1]))
		}
		in.Results = append(in.Results, Result{ID: ri, Formula: f})
	}
	in.Need = (len(in.Results) + 1) / 2
	return in
}

// requireSamePlan asserts bit-identical plans: same confidences, cost,
// satisfied set, and node count.
func requireSamePlan(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if len(a.NewP) != len(b.NewP) {
		t.Fatalf("%s: plan lengths %d vs %d", label, len(a.NewP), len(b.NewP))
	}
	for i := range a.NewP {
		if a.NewP[i] != b.NewP[i] {
			t.Fatalf("%s: tuple %d confidence %v vs %v (plans must be bit-identical)",
				label, i, a.NewP[i], b.NewP[i])
		}
	}
	if a.Cost != b.Cost {
		t.Fatalf("%s: cost %v vs %v", label, a.Cost, b.Cost)
	}
	if len(a.Satisfied) != len(b.Satisfied) {
		t.Fatalf("%s: satisfied %v vs %v", label, a.Satisfied, b.Satisfied)
	}
	for i := range a.Satisfied {
		if a.Satisfied[i] != b.Satisfied[i] {
			t.Fatalf("%s: satisfied %v vs %v", label, a.Satisfied, b.Satisfied)
		}
	}
	if a.Nodes != b.Nodes {
		t.Fatalf("%s: nodes %d vs %d (evaluation paths diverged)", label, a.Nodes, b.Nodes)
	}
}

// TestDifferentialCompiledPlansAllSolvers is the acceptance check for
// the compiled evaluation path: every solver must produce a
// bit-identical plan whether result formulas run through compiled
// programs (default) or the legacy tree walk, on seeded workloads with
// and without shared variables.
func TestDifferentialCompiledPlansAllSolvers(t *testing.T) {
	type pair struct {
		name     string
		compiled Solver
		treeWalk Solver
	}
	small := func(seed int64) []*Instance {
		r := rand.New(rand.NewSource(seed))
		var out []*Instance
		for i := 0; i < 10; i++ {
			out = append(out, randomInstance(r))
		}
		return out
	}
	for _, tc := range []pair{
		{"greedy", &Greedy{}, &Greedy{TreeWalk: true}},
		{"greedy-incremental", &Greedy{Incremental: true}, &Greedy{Incremental: true, TreeWalk: true}},
		{"heuristic", NewHeuristic(), &Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true, GreedyBound: true, TreeWalk: true}},
		{"dnc", NewDivideAndConquer(), &DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64, TreeWalk: true}},
	} {
		for _, in := range small(7) {
			pc, errC := tc.compiled.Solve(in)
			pt, errT := tc.treeWalk.Solve(in)
			if (errC == nil) != (errT == nil) {
				t.Fatalf("%s: error mismatch: compiled %v, tree-walk %v", tc.name, errC, errT)
			}
			if errC != nil {
				continue
			}
			requireSamePlan(t, tc.name+"/small", pc, pt)
		}
	}
	// Medium Table-4-shaped workloads (too slow for the exhaustive
	// heuristic): greedy variants and D&C, without sharing, with
	// sharing, and with one result over compiledSharedLimit that even
	// the compiled evaluator runs through its tree-walk fallback.
	for _, m := range []struct {
		name string
		in   *Instance
	}{
		{"no-sharing", mediumInstance(11, 300, 5, false)},
		{"sharing", mediumInstance(11, 300, 5, true)},
		{"over-compiled-limit", overLimitInstance(t)},
	} {
		for _, tc := range []pair{
			{"greedy", &Greedy{}, &Greedy{TreeWalk: true}},
			{"greedy-incremental", &Greedy{Incremental: true}, &Greedy{Incremental: true, TreeWalk: true}},
			{"dnc", NewDivideAndConquer(), &DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64, TreeWalk: true}},
		} {
			pc, errC := tc.compiled.Solve(m.in)
			pt, errT := tc.treeWalk.Solve(m.in)
			if errC != nil || errT != nil {
				t.Fatalf("%s %s: compiled err %v, tree-walk err %v", tc.name, m.name, errC, errT)
			}
			requireSamePlan(t, tc.name+"/"+m.name, pc, pt)
			if err := m.in.Verify(pc); err != nil {
				t.Fatalf("%s %s: plan fails Verify: %v", tc.name, m.name, err)
			}
		}
	}
}

// overLimitInstance is a sharing mediumInstance plus one result whose
// formula shares compiledSharedLimit+1 variables, so the evaluator's
// uncompiled fallback runs beside compiled results in one solve; Need
// covers every result, so the plan has to raise the fallback one too.
// The formula is (chain ∧ c) ∨ (chain ∧ d): pinning any chain variable
// false collapses it, which keeps the tree walk's Shannon expansion
// linear in the chain length instead of exponential.
func overLimitInstance(t *testing.T) *Instance {
	t.Helper()
	in := mediumInstance(11, 60, 5, true)
	fresh := func(p float64) *lineage.Expr {
		v := lineage.Var(len(in.Base) + 1)
		in.Base = append(in.Base, BaseTuple{Var: v, P: p, Cost: cost.Linear{Rate: 10}})
		return lineage.NewVar(v)
	}
	var left, right []*lineage.Expr
	for i := 0; i <= compiledSharedLimit; i++ {
		v := fresh(0.9)
		left, right = append(left, v), append(right, v)
	}
	f := lineage.Or(lineage.And(append(left, fresh(0.3))...), lineage.And(append(right, fresh(0.3))...))
	if _, err := lineage.CompileExact(f, compiledSharedLimit); !errors.Is(err, lineage.ErrTooManyShared) {
		t.Fatalf("fixture formula compiles under compiledSharedLimit (err %v); it would not reach the fallback", err)
	}
	in.Results = append(in.Results, Result{ID: len(in.Results), Formula: f})
	in.Need = len(in.Results)
	return in
}

// TestGreedyHeapMatchesRescanMedium: the lazy-heap incremental gain
// selection must reproduce the full rescan's plan exactly (same
// tie-breaking) on workload-shaped instances, where thousands of picks
// exercise the staleness handling.
func TestGreedyHeapMatchesRescanMedium(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := mediumInstance(seed, 200, 5, seed == 3)
		rescan, err := (&Greedy{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := (&Greedy{Incremental: true}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		// Node counts legitimately differ (that is the point of the
		// incremental mode); everything else must match.
		if rescan.Cost != incr.Cost {
			t.Fatalf("seed %d: rescan cost %v, incremental %v", seed, rescan.Cost, incr.Cost)
		}
		for i := range rescan.NewP {
			if rescan.NewP[i] != incr.NewP[i] {
				t.Fatalf("seed %d: tuple %d rescan %v, incremental %v", seed, i, rescan.NewP[i], incr.NewP[i])
			}
		}
		if incr.Nodes > rescan.Nodes {
			t.Fatalf("seed %d: incremental evaluated more gains (%d) than rescan (%d)", seed, incr.Nodes, rescan.Nodes)
		}
	}
}

// TestVerifyCompiledPlans: plans from the compiled path must pass the
// instance's independent verification (which itself uses the tree-walk
// Prob), tying the two stacks together end to end.
func TestVerifyCompiledPlans(t *testing.T) {
	in := mediumInstance(5, 120, 4, true)
	for _, s := range []Solver{&Greedy{}, &Greedy{Incremental: true}, NewDivideAndConquer()} {
		plan, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if math.IsNaN(plan.Cost) || plan.Cost < 0 {
			t.Fatalf("%s: bad cost %v", s.Name(), plan.Cost)
		}
	}
}
