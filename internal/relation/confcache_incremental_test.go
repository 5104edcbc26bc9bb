package relation

import (
	"math/rand"
	"testing"

	"pcqe/internal/lineage"
)

// TestIncrementalAdvanceDifferential proves the incremental cache
// advance bit-identical to evaluating every formula from scratch: after
// each commit touching k of N base tuples, every cached confidence —
// whether recomputed (lineage intersects the commit) or carried forward
// (it does not) — must equal a fresh evaluation against the committed
// state, compared with == (no tolerance).
func TestIncrementalAdvanceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "k", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	const nBase = 150
	vars := make([]lineage.Var, nBase)
	for i := 0; i < nBase; i++ {
		vars[i] = tab.MustInsert(dyadic(rng.Intn(17)), nil, Int(int64(i))).Var
	}
	v := func(i int) *lineage.Expr { return lineage.NewVar(vars[i%nBase]) }

	// A mixed corpus: read-once conjunctions and shared-variable formulas
	// that route through the Shannon kernel.
	var exprs []*lineage.Expr
	for i := 0; i < 40; i++ {
		exprs = append(exprs, lineage.And(v(3*i), v(3*i+1), v(3*i+2)))
	}
	for i := 0; i < 40; i++ {
		x, y, z := v(2*i), v(2*i+31), v(2*i+67)
		exprs = append(exprs, lineage.Or(lineage.And(x, y), lineage.And(x, z)))
	}

	cc := NewConfidenceCache(c, 0)
	tuples := make([]*Tuple, len(exprs))
	for i, e := range exprs {
		tuples[i] = &Tuple{Lineage: e}
		confLatest(t, cc, tuples[i])
	}
	primed := cc.Stats()
	if primed.Misses != int64(len(exprs)) {
		t.Fatalf("priming misses = %d, want %d", primed.Misses, len(exprs))
	}

	const rounds = 12
	for r := 0; r < rounds; r++ {
		// One commit touching k=3 base tuples.
		x := c.Begin()
		for j := 0; j < 3; j++ {
			if err := x.SetConfidence(vars[rng.Intn(nBase)], dyadic(rng.Intn(17))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		for i, tu := range tuples {
			got := confLatest(t, cc, tu)
			_, want, _, _ := evalClassified(tu.Lineage, c)
			if got != want {
				t.Fatalf("round %d formula %d: cached %v, fresh %v (not bit-identical)", r, i, got, want)
			}
		}
	}

	after := cc.Stats()
	// Every post-commit read must be a hit: the advance kept the whole
	// cache fresh, so no read-path miss ever re-evaluates.
	if misses := after.Misses - primed.Misses; misses != 0 {
		t.Errorf("post-commit reads caused %d misses, want 0", misses)
	}
	if hits := after.Hits - primed.Hits; hits != int64(rounds*len(exprs)) {
		t.Errorf("hits = %d, want %d", hits, rounds*len(exprs))
	}
	// Both triage outcomes must have occurred: touched entries recomputed,
	// untouched ones carried over without evaluation.
	reevals := after.IncrementalReevals - primed.IncrementalReevals
	restamps := after.IncrementalRestamps - primed.IncrementalRestamps
	if reevals == 0 {
		t.Error("no entry was incrementally re-evaluated")
	}
	if restamps == 0 {
		t.Error("no entry was carried forward without recomputation")
	}
	if restamps <= reevals {
		t.Errorf("restamps (%d) should dominate re-evaluations (%d) for k ≪ N commits", restamps, reevals)
	}
}

// benchIncrementalCache builds a catalog with n base tuples and a cache
// primed with n cached formulas (each an AND over 4 neighboring vars).
func benchIncrementalCache(b *testing.B, n int) (*Catalog, []lineage.Var, *ConfidenceCache, []*Tuple) {
	b.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "k", Type: TypeInt}))
	if err != nil {
		b.Fatal(err)
	}
	x := c.Begin()
	vars := make([]lineage.Var, n)
	for i := 0; i < n; i++ {
		row, err := x.Insert(tab, []Value{Int(int64(i))}, 0.5, nil)
		if err != nil {
			b.Fatal(err)
		}
		vars[i] = row.Var
	}
	if _, err := x.Commit(); err != nil {
		b.Fatal(err)
	}
	cc := NewConfidenceCache(c, 2*n)
	snap := c.Snapshot()
	defer snap.Release()
	tuples := make([]*Tuple, n)
	for i := 0; i < n; i++ {
		e := lineage.And(
			lineage.NewVar(vars[i]),
			lineage.NewVar(vars[(i+1)%n]),
			lineage.NewVar(vars[(i+2)%n]),
			lineage.NewVar(vars[(i+3)%n]),
		)
		tuples[i] = &Tuple{Lineage: e}
		if _, err := cc.ConfidenceAtAcc(tuples[i], snap, nil); err != nil {
			b.Fatal(err)
		}
	}
	return c, vars, cc, tuples
}

// BenchmarkMVCCIncrementalCommit measures the cost of one commit
// touching k=16 of 100K base tuples, including the incremental advance
// of a 100K-entry confidence cache (≈16·4 re-evaluations, everything
// else restamped).
func BenchmarkMVCCIncrementalCommit(b *testing.B) {
	const n, k = 100_000, 16
	c, vars, _, _ := benchIncrementalCache(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := 0.4
		if i%2 == 0 {
			p = 0.6
		}
		x := c.Begin()
		for j := 0; j < k; j++ {
			if err := x.SetConfidence(vars[(i*k+j*617)%n], p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := x.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVCCFullReevaluation is the non-incremental baseline: the
// cost a cache that drops everything on commit pays afterwards —
// re-evaluating all 100K cached formulas from scratch. Compare ns/op
// against BenchmarkMVCCIncrementalCommit for the k ≪ N payoff.
func BenchmarkMVCCFullReevaluation(b *testing.B) {
	const n = 100_000
	c, _, _, tuples := benchIncrementalCache(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tu := range tuples {
			evalClassified(tu.Lineage, c)
		}
	}
}
