package strategy

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// distinctJoinInstance is a propose over a DISTINCT join's withheld
// rows: result i is one supplier s_i with one to three matching orders,
// whose lineage the DISTINCT folds — with fold = lineage.Or the
// unfactored (o1 ∧ s) ∨ (o2 ∧ s), with lineage.OrFactored s ∧ (o1 ∨ o2).
func distinctJoinInstance(fold func(...*lineage.Expr) *lineage.Expr, seed int64, beta float64) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: beta, Delta: 0.1}
	v := func() *lineage.Expr {
		id := lineage.Var(len(in.Base) + 1)
		in.Base = append(in.Base, BaseTuple{Var: id, P: 0.05 + 0.9*r.Float64(), Cost: cost.Linear{Rate: 1 + 99*r.Float64()}})
		return lineage.NewVar(id)
	}
	for ri := 0; ri < 300; ri++ {
		s := v()
		ops := make([]*lineage.Expr, 1+r.Intn(3))
		for i := range ops {
			ops[i] = lineage.And(v(), s)
		}
		in.Results = append(in.Results, Result{ID: ri, Formula: fold(ops...)})
	}
	in.Need = len(in.Results) * 4 / 5
	return in
}

// TestFactoredLineagePlansIdentically: factoring a DISTINCT join's
// lineage changes how the solvers price it (one flat pass instead of a
// Shannon expansion on the supplier), not what they plan. Every solver
// the engine can run returns the same confidences, bit for bit, and the
// same cost — under a cancellable context, as a server solves, too.
func TestFactoredLineagePlansIdentically(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, beta := range []float64{0.35, 0.5} {
		plain, factored := distinctJoinInstance(lineage.Or, 7, beta), distinctJoinInstance(lineage.OrFactored, 7, beta)
		if plain.Results[1].Formula.ReadOnce() == factored.Results[1].Formula.ReadOnce() {
			t.Fatalf("result 1: %v and %v", plain.Results[1].Formula, factored.Results[1].Formula)
		}
		for _, s := range []Solver{NewDivideAndConquer(), widened{NewDivideAndConquer(), 2}, &Greedy{Incremental: true}} {
			for _, c := range []context.Context{context.Background(), ctx} {
				want, err := s.SolveContext(c, plain, Budget{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.SolveContext(c, factored, Budget{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.NewP, want.NewP) || got.Cost != want.Cost {
					t.Errorf("β %v, %s: factored lineage plans cost %v, unfactored %v", beta, s.Name(), got.Cost, want.Cost)
				}
			}
		}
	}
}

// TestCanceledMidSolveUnderOneProc: a checkpoint reads the context's
// channel only at a goroutine's first checkpoint and every pollEvery-th
// after it, so that read is what bounds the stop, with a single P as with
// many. Cancelled at a pivot deep in a Shannon expansion, every solver
// stops with the cancellation within pollEvery more pivots; cancelled
// before it starts, it stops at its first checkpoint, before any pivot;
// and no solve leaves a goroutine behind.
func TestCanceledMidSolveUnderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer fault.Reset()
	before := runtime.NumGoroutine()
	const at = 500 // the pivot the cancellation lands on
	for _, mk := range contextSolverMakers() {
		s := mk()
		ctx, cancel := context.WithCancel(context.Background())
		fault.Reset()
		fault.Enable()
		fault.Register(SitePivot, func() {
			if fault.Hits(SitePivot) == at {
				cancel()
			}
		})
		_, err := s.SolveContext(ctx, adversarialInstance(12), Budget{})
		fault.Reset()
		cancel()
		var bx *BudgetExceededError
		if !errors.As(err, &bx) || bx.Resource != ResourceCanceled || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want the cancellation", s.Name(), err)
			continue
		}
		if bx.Pivots < at || bx.Pivots > at+pollEvery {
			t.Errorf("%s: stopped after %d pivots, cancelled at pivot %d (bound %d more)", s.Name(), bx.Pivots, at, pollEvery)
		}
		_, err = s.SolveContext(ctx, adversarialInstance(12), Budget{})
		if !errors.As(err, &bx) || bx.Resource != ResourceCanceled || bx.Pivots > 0 {
			t.Errorf("%s: cancelled before the solve: err = %v, want the cancellation before any pivot", s.Name(), err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}
}
