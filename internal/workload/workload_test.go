package workload

import (
	"context"
	"testing"

	"pcqe/internal/lineage"
	"pcqe/internal/sql"
	"pcqe/internal/strategy"
)

func TestDefaultParamsMatchTable4(t *testing.T) {
	p := DefaultParams()
	if p.DataSize != 10_000 || p.TuplesPerResult != 5 || p.Delta != 0.1 ||
		p.Theta != 0.5 || p.Beta != 0.6 {
		t.Fatalf("defaults diverge from Table 4: %+v", p)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{DataSize: 0, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6},
		{DataSize: 10, TuplesPerResult: 0, Delta: 0.1, Theta: 0.5, Beta: 0.6},
		{DataSize: 10, TuplesPerResult: 20, Delta: 0.1, Theta: 0.5, Beta: 0.6},
		{DataSize: 10, TuplesPerResult: 5, Delta: 0, Theta: 0.5, Beta: 0.6},
		{DataSize: 10, TuplesPerResult: 5, Delta: 0.1, Theta: 0, Beta: 0.6},
		{DataSize: 10, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 1},
		{DataSize: 10, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Results: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	p := Params{DataSize: 200, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: 7}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Base) != 200 {
		t.Fatalf("base = %d", len(in.Base))
	}
	if len(in.Results) != 40 {
		t.Fatalf("results = %d, want 200/5", len(in.Results))
	}
	if in.Need != 20 {
		t.Fatalf("need = %d, want θ·n = 20", in.Need)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Confidences around 0.1.
	for i, b := range in.Base {
		if b.P < 0.05 || b.P > 0.15 {
			t.Fatalf("base %d confidence %v outside [0.05,0.15]", i, b.P)
		}
		if b.Cost == nil {
			t.Fatalf("base %d has no cost function", i)
		}
	}
	// Every result over exactly TuplesPerResult distinct vars, read-once.
	for ri, r := range in.Results {
		vars := r.Formula.Vars()
		if len(vars) != 5 {
			t.Fatalf("result %d has %d vars", ri, len(vars))
		}
		if !r.Formula.ReadOnce() {
			t.Fatalf("result %d formula not read-once", ri)
		}
		if !r.Formula.Monotone() {
			t.Fatalf("result %d formula not monotone", ri)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{DataSize: 100, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: 3}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Base {
		if a.Base[i].P != b.Base[i].P {
			t.Fatalf("confidences diverge at %d", i)
		}
	}
	for i := range a.Results {
		if a.Results[i].Formula.String() != b.Results[i].Formula.String() {
			t.Fatalf("formulas diverge at %d", i)
		}
	}
	p.Seed = 4
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Base {
		if a.Base[i].P != c.Base[i].P {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different workloads")
	}
}

func TestGenerateResultsOverride(t *testing.T) {
	p := Params{DataSize: 100, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Results: 7, Seed: 1}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Results) != 7 {
		t.Fatalf("results = %d", len(in.Results))
	}
	if in.Need != 4 {
		t.Fatalf("need = %d, want ⌈0.5·7⌉ = 4", in.Need)
	}
}

func TestGeneratedInstancesSolvable(t *testing.T) {
	p := Params{DataSize: 100, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: 11}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []strategy.Solver{&strategy.Greedy{}, strategy.NewDivideAndConquer()} {
		plan, err := s.SolveContext(context.Background(), in, strategy.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.Cost <= 0 {
			t.Errorf("%s: zero-cost plan on a hard instance", s.Name())
		}
	}
}

func TestGenerateTinyForHeuristic(t *testing.T) {
	// The Figure 11(a)/(d) configuration: 10 base tuples, 5 per result,
	// require 3 of n results.
	p := Params{DataSize: 10, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Results: 6, Seed: 2}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in.Need = 3
	h := strategy.NewHeuristic()
	plan, err := h.SolveContext(context.Background(), in, strategy.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(plan); err != nil {
		t.Fatal(err)
	}
	g, err := (&strategy.Greedy{}).SolveContext(context.Background(), in, strategy.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost > g.Cost+1e-9 {
		t.Errorf("exhaustive heuristic (%v) must not lose to greedy (%v)", plan.Cost, g.Cost)
	}
}

func TestSampleVarsDistinct(t *testing.T) {
	p := Params{DataSize: 50, TuplesPerResult: 25, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: 9}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for ri, r := range in.Results {
		seen := map[lineage.Var]bool{}
		for _, v := range r.Formula.Vars() {
			if seen[v] {
				t.Fatalf("result %d repeats var %d", ri, v)
			}
			seen[v] = true
			if v < 1 || int(v) > 50 {
				t.Fatalf("var %d out of pool range", v)
			}
		}
	}
}

func TestGenerateDB(t *testing.T) {
	cat, queries, err := GenerateDB(DefaultDBParams())
	if err != nil {
		t.Fatal(err)
	}
	sup, err := cat.Table("Suppliers")
	if err != nil {
		t.Fatal(err)
	}
	if sup.Len() != 100 {
		t.Fatalf("suppliers = %d", sup.Len())
	}
	ord, err := cat.Table("Orders")
	if err != nil {
		t.Fatal(err)
	}
	if ord.Len() != 1000 {
		t.Fatalf("orders = %d", ord.Len())
	}
	if len(queries) < 4 {
		t.Fatalf("queries = %d", len(queries))
	}
	for _, row := range sup.RowsAt(cat.Snapshot()) {
		if row.Confidence() < 0.05 || row.Confidence() > 0.15 {
			t.Fatalf("confidence %v out of default range", row.Confidence())
		}
		if row.Cost() == nil {
			t.Fatal("rows must be improvable")
		}
	}
}

func TestGenerateDBQueriesRun(t *testing.T) {
	cat, queries, err := GenerateDB(DBParams{Suppliers: 20, OrdersPerSupplier: 3, Regions: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := cat.Snapshot()
	defer snap.Release()
	for i, q := range queries {
		rows, _, err := sql.QuerySnap(snap, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		// Every result carries usable lineage with a valid confidence.
		for _, r := range rows {
			p := snap.Confidence(r)
			if p < 0 || p > 1 {
				t.Fatalf("query %d: confidence %v", i, p)
			}
		}
	}
}

func TestGenerateDBValidation(t *testing.T) {
	bad := []DBParams{
		{Suppliers: 0, OrdersPerSupplier: 1, Regions: 1},
		{Suppliers: 1, OrdersPerSupplier: 0, Regions: 1},
		{Suppliers: 1, OrdersPerSupplier: 1, Regions: 0},
		{Suppliers: 1, OrdersPerSupplier: 1, Regions: 1, ConfLo: 0.9, ConfHi: 0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
}

func TestConfRangeOverride(t *testing.T) {
	p := Params{DataSize: 10, TuplesPerResult: 2, Delta: 0.1, Theta: 0.5, Beta: 0.6,
		ConfLo: 0.3, ConfHi: 0.5, Seed: 1}
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range in.Base {
		if b.P < 0.3 || b.P > 0.5 {
			t.Fatalf("confidence %v outside override range", b.P)
		}
	}
	p.ConfLo, p.ConfHi = 0.9, 0.1
	if err := p.Validate(); err == nil {
		t.Fatal("inverted range should fail")
	}
}
