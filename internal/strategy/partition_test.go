package strategy

import (
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

func TestPartitionEmptyInstance(t *testing.T) {
	in := &Instance{Beta: 0.5, Delta: 0.1}
	if groups := Partition(in, 1, 0); len(groups) != 0 {
		t.Fatalf("empty instance produced %d groups", len(groups))
	}
}

func TestPartitionGammaAboveAllWeights(t *testing.T) {
	// No pair of results shares gamma-many tuples, so nothing merges:
	// every result stays a singleton group covering exactly its own
	// variables.
	in := sweepInstance()
	groups := Partition(in, 100, 0)
	if len(groups) != len(in.Results) {
		t.Fatalf("groups = %d, want one per result (%d)", len(groups), len(in.Results))
	}
	for _, g := range groups {
		if len(g.Results) != 1 {
			t.Fatalf("group with %d results under unreachable gamma", len(g.Results))
		}
		ri := g.Results[0]
		want := map[int]bool{}
		for _, v := range in.Results[ri].Formula.Vars() {
			for bi, b := range in.Base {
				if b.Var == v {
					want[bi] = true
				}
			}
		}
		if len(g.Base) != len(want) {
			t.Fatalf("result %d: group base %v does not match formula vars", ri, g.Base)
		}
		for _, bi := range g.Base {
			if !want[bi] {
				t.Fatalf("result %d: group contains unrelated base %d", ri, bi)
			}
		}
	}
}

func TestPartitionMaxResultsBlocksMerges(t *testing.T) {
	in := sweepInstance()
	// A cap of one result per group forbids every merge even though the
	// sharing graph is connected at gamma=1.
	groups := Partition(in, 1, 1)
	if len(groups) != len(in.Results) {
		t.Fatalf("groups = %d, want %d singletons under cap 1", len(groups), len(in.Results))
	}
	// Without a cap the connected sharing graph collapses into fewer
	// groups.
	if free := Partition(in, 1, 0); len(free) >= len(groups) {
		t.Fatalf("uncapped partition has %d groups, expected fewer than %d", len(free), len(groups))
	}
}

func TestPartitionSingletonResults(t *testing.T) {
	// Results with disjoint variables never merge at any gamma.
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	in := &Instance{Beta: 0.5, Delta: 0.1, Need: 2}
	for i := 1; i <= 4; i++ {
		in.Base = append(in.Base, BaseTuple{Var: lineage.Var(i), P: 0.3, Cost: cost.Linear{Rate: 10}})
	}
	in.Results = []Result{
		{ID: 0, Formula: lineage.And(v(1), v(2))},
		{ID: 1, Formula: lineage.And(v(3), v(4))},
	}
	if groups := Partition(in, 1, 0); len(groups) != 2 {
		t.Fatalf("disjoint results merged: %d groups", len(groups))
	}
}

func TestDnCHandlesDegeneratePartitions(t *testing.T) {
	// The full solver must survive the partition edge cases end to end:
	// zero-need instances, unreachable gamma (all singleton groups), and
	// a merge-blocking result cap.
	zero := sweepInstance()
	zero.Need = 0
	plan, err := solve(NewDivideAndConquer(), zero)
	if err != nil || plan == nil || plan.Cost != 0 {
		t.Fatalf("need-0: plan=%+v err=%v, want free plan", plan, err)
	}

	for _, d := range []*DivideAndConquer{
		{Gamma: 100, Tau: 8},
		{Gamma: 1, Tau: 8, MaxGroupResults: 1},
		{Gamma: 1, Tau: 0},
	} {
		in := sweepInstance()
		plan, err := solve(d, in)
		if err != nil {
			t.Fatalf("gamma=%d cap=%d: %v", d.Gamma, d.MaxGroupResults, err)
		}
		if verr := in.Verify(plan); verr != nil {
			t.Fatalf("gamma=%d cap=%d: invalid plan: %v", d.Gamma, d.MaxGroupResults, verr)
		}
	}
}
