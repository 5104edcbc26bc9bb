package relation

import (
	"math/rand"
	"testing"

	"pcqe/internal/lineage"
)

// TestIncrementalAdvanceDifferential proves the incremental cache
// advance bit-identical to evaluating every formula from scratch: after
// each commit touching k of N base tuples, every confidence the cache
// serves — carried forward when the formula reads no changed variable
// (such an entry is not even visited), recomputed by the first reader
// when it does (the commit marked it stale) — must equal a fresh
// evaluation against the committed state, compared with == (no
// tolerance).
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
		vars[i] = tab.MustInsert(dyadic(rng.Intn(17)), nil, Int(int64(i))).Var()
	}
	v := func(i int) *lineage.Expr { return lineage.NewVar(vars[i%nBase]) }

	// The cached corpus: shared-variable formulas that route through the
	// Shannon kernel, in two shapes. Read-once conjunctions over the same
	// variables are computed directly and must leave the cache alone.
	var exprs []*lineage.Expr
	for i := 0; i < 40; i++ {
		x, y, z := v(3*i), v(3*i+1), v(3*i+2)
		exprs = append(exprs, lineage.Or(lineage.And(x, y), lineage.And(x, lineage.Not(y), z)))
	}
	for i := 0; i < 40; i++ {
		x, y, z := v(2*i), v(2*i+31), v(2*i+67)
		exprs = append(exprs, lineage.Or(lineage.And(x, y), lineage.And(x, z)))
	}
	var readOnce []*Tuple
	for i := 0; i < 40; i++ {
		readOnce = append(readOnce, &Tuple{Lineage: lineage.And(v(3*i), v(3*i+1), v(3*i+2))})
	}

	cc := NewConfidenceCache(c, 0)
	tuples := make([]*Tuple, len(exprs))
	for i, e := range exprs {
		tuples[i] = &Tuple{Lineage: e}
		confLatest(t, cc, tuples[i])
	}
	for _, tu := range readOnce {
		readOnceUncached(t, cc, tu)
	}
	primed := cc.Stats()
	if primed.Misses != int64(len(exprs)) {
		t.Fatalf("priming misses = %d, want %d", primed.Misses, len(exprs))
	}
	stamps := func() map[string]int64 {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		m := make(map[string]int64, len(cc.entries))
		for k, e := range cc.entries {
			m[k] = e.validFrom
		}
		return m
	}

	const rounds = 12
	var touchedTotal int64
	for r := 0; r < rounds; r++ {
		before := stamps()
		// One commit touching k=3 base tuples.
		changed := map[lineage.Var]bool{}
		x := c.Begin()
		for j := 0; j < 3; j++ {
			v := vars[rng.Intn(nBase)]
			changed[v] = true
			if err := x.SetConfidence(v, dyadic(rng.Intn(17))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		// The commit visits exactly the entries reading a changed variable:
		// those are stale, every other keeps the stamp it had.
		after := stamps()
		for _, tu := range tuples {
			key, touched := tu.Lineage.String(), false
			for _, v := range tu.Lineage.Vars() {
				touched = touched || changed[v]
			}
			switch {
			case touched && after[key] != stale:
				t.Fatalf("round %d: %s reads a changed variable but still stands at epoch %d", r, key, after[key])
			case touched:
				touchedTotal++
			case after[key] != before[key]:
				t.Fatalf("round %d: %s reads no changed variable but was visited (stamp %d → %d)", r, key, before[key], after[key])
			}
		}
		for i, tu := range tuples {
			got := confLatest(t, cc, tu)
			_, want, _, _ := evalClassified(tu.Lineage, c.AssignmentAt(c.Version()))
			if got != want {
				t.Fatalf("round %d formula %d: cached %v, fresh %v (not bit-identical)", r, i, got, want)
			}
		}
		for _, tu := range readOnce {
			readOnceUncached(t, cc, tu)
		}
	}

	after := cc.Stats()
	// A post-commit read misses exactly where the commit invalidated, and
	// that is the minority a k ≪ N commit makes it.
	if got := after.Invalidated - primed.Invalidated; got == 0 || got != touchedTotal {
		t.Errorf("invalidations = %d, want %d (one per entry reading a changed variable)", got, touchedTotal)
	}
	if misses := after.Misses - primed.Misses; misses != touchedTotal {
		t.Errorf("post-commit reads caused %d misses, want the %d invalidated entries and no other", misses, touchedTotal)
	}
	if hits := after.Hits - primed.Hits; hits != int64(rounds*len(exprs))-touchedTotal || hits <= touchedTotal {
		t.Errorf("hits = %d, want the %d reads of entries left alone, dominating the %d misses", hits, int64(rounds*len(exprs))-touchedTotal, touchedTotal)
	}
}

// benchIncrementalCache builds a catalog with n base tuples and a cache
// primed with n cached formulas (each a shared formula over 4
// neighboring vars: read-once ones would not be cached).
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
		vars[i] = row.Var()
	}
	if _, err := x.Commit(); err != nil {
		b.Fatal(err)
	}
	cc := NewConfidenceCache(c, 2*n)
	snap := c.Snapshot()
	defer snap.Release()
	tuples := make([]*Tuple, n)
	for i := 0; i < n; i++ {
		x := lineage.NewVar(vars[i])
		e := lineage.Or(
			lineage.And(x, lineage.NewVar(vars[(i+1)%n])),
			lineage.And(x, lineage.NewVar(vars[(i+2)%n])),
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
// of a 100K-entry confidence cache (≈16·4 entries marked stale, nothing
// else visited).
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
// cost readers pay after a commit that drops the whole cache —
// re-evaluating all 100K cached formulas from scratch, against the ≈64
// BenchmarkMVCCIncrementalCommit leaves them.
func BenchmarkMVCCFullReevaluation(b *testing.B) {
	const n = 100_000
	c, _, _, tuples := benchIncrementalCache(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tu := range tuples {
			evalClassified(tu.Lineage, c.AssignmentAt(c.Version()))
		}
	}
}
