package relation

import (
	"math"
	"sync"
	"testing"

	"pcqe/internal/lineage"
)

// TestEvalClassifiedClasses pins the class boundaries the confidence
// cache routes and counts by.
func TestEvalClassifiedClasses(t *testing.T) {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	half := lineage.FuncAssignment(func(lineage.Var) float64 { return 0.5 })
	classOf := func(e *lineage.Expr) (LineageClass, int64) {
		class, _, pivots, err := evalClassified(e, half)
		if err != nil {
			t.Fatal(err)
		}
		return class, pivots
	}

	readOnce := lineage.And(lineage.Or(v(1), v(2)), v(3))
	if class, pivots := classOf(readOnce); class != LineageReadOnce || pivots != 0 {
		t.Errorf("read-once formula classified %v (%d pivots)", class, pivots)
	}

	// v1 and v2 occur on both sides of the OR: two Shannon pivots.
	bounded := lineage.Or(
		lineage.And(v(1), v(2), v(10)),
		lineage.And(v(1), v(2), v(11)),
	)
	if class, pivots := classOf(bounded); class != LineageBounded || pivots == 0 {
		t.Errorf("bounded formula classified %v (%d pivots), want %v with pivots", class, pivots, LineageBounded)
	}

	// BoundedPivotLimit+1 shared variables: hard.
	n := BoundedPivotLimit + 1
	left := make([]*lineage.Expr, 0, n+1)
	right := make([]*lineage.Expr, 0, n+1)
	for i := 1; i <= n; i++ {
		left = append(left, v(i))
		right = append(right, v(i))
	}
	left = append(left, v(100))
	right = append(right, v(101))
	hard := lineage.Or(lineage.And(left...), lineage.And(right...))
	if class, _ := classOf(hard); class != LineageHard {
		t.Errorf("formula sharing %d variables classified %v, want %v", n, class, LineageHard)
	}
}

// confCacheFixture builds a catalog with base rows and two derived
// tuples: one read-once, one with shared variables.
func confCacheFixture(t *testing.T) (*Catalog, *Tuple, *Tuple, []*BaseTuple) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []*BaseTuple
	for i, p := range []float64{0.3, 0.4, 0.1, 0.8} {
		rows = append(rows, tab.MustInsert(p, nil, Int(int64(i))))
	}
	v := func(i int) *lineage.Expr { return lineage.NewVar(rows[i].Var) }
	readOnce := NewTuple([]Value{Int(1)}, lineage.And(lineage.Or(v(0), v(1)), v(2)))
	shared := NewTuple([]Value{Int(2)}, lineage.Or(lineage.And(v(0), v(1)), lineage.And(v(0), v(3))))
	return c, readOnce, shared, rows
}

// confLatest asks the cache for the tuple's confidence at a fresh
// snapshot of the latest committed version. It reports failures with
// Errorf so concurrent tests may call it off the test goroutine.
func confLatest(t testing.TB, cc *ConfidenceCache, tup *Tuple) float64 {
	snap := cc.cat.Snapshot()
	defer snap.Release()
	p, err := cc.ConfidenceAtAcc(tup, snap, nil)
	if err != nil {
		t.Errorf("ConfidenceAtAcc: %v", err)
	}
	return p
}

func TestConfidenceCacheValuesAndHits(t *testing.T) {
	c, readOnce, shared, _ := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)

	// Read-once routing must be bit-identical to the tree walk, not
	// merely close: both sides compute the same independent product.
	if got, want := confLatest(t, cc, readOnce), lineage.Prob(readOnce.Lineage, c); got != want {
		t.Fatalf("read-once confidence = %v, want exactly %v", got, want)
	}
	if got, want := confLatest(t, cc, shared), lineage.Prob(shared.Lineage, c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shared confidence = %v, want %v", got, want)
	}

	st := cc.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/2", st.Hits, st.Misses)
	}
	if st.Rows[LineageReadOnce] != 1 || st.Evals[LineageReadOnce] != 1 {
		t.Errorf("read-once counters = %+v", st)
	}
	if st.Rows[LineageBounded] != 1 || st.Pivots[LineageBounded] == 0 {
		t.Errorf("bounded class must record rows and pivots, got %+v", st)
	}
	if st.Pivots[LineageReadOnce] != 0 {
		t.Errorf("read-once path must never pivot, got %d", st.Pivots[LineageReadOnce])
	}

	confLatest(t, cc, readOnce)
	confLatest(t, cc, shared)
	st = cc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after second pass: hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}
}

// TestConfidenceCacheInvalidation is the guard the optimizer depends
// on: if the epoch check were removed, the cache would keep serving the
// pre-mutation probability and this test would fail.
func TestConfidenceCacheInvalidation(t *testing.T) {
	c, readOnce, shared, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	before := confLatest(t, cc, shared)
	confLatest(t, cc, readOnce)

	if err := c.SetConfidence(rows[0].Var, 0.95); err != nil {
		t.Fatal(err)
	}
	after := confLatest(t, cc, shared)
	want := lineage.Prob(shared.Lineage, c)
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("post-SetConfidence cache served %v, fresh evaluation gives %v", after, want)
	}
	if after == before {
		t.Fatalf("confidence unchanged (%v) after a base-tuple update the formula depends on", after)
	}
	st := cc.Stats()
	// The commit recomputed the dependent entry incrementally, so the
	// read after it is a hit on the fresh value, not a new miss.
	if st.Misses != 2 {
		t.Fatalf("commit-time re-evaluation must not add misses: misses=%d, want 2", st.Misses)
	}
	if st.IncrementalReevals < 1 {
		t.Fatalf("entry depending on the changed variable must re-evaluate at commit: reevals=%d", st.IncrementalReevals)
	}

	// Deleting base rows also bumps the confidence epoch.
	tab, err := c.Table("B")
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.ConfEpoch()
	if _, err := tab.Delete(nil); err != nil {
		t.Fatal(err)
	}
	if c.ConfEpoch() == epoch {
		t.Fatal("Delete must bump the confidence epoch")
	}
}

func TestConfidenceCacheEviction(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	cc := NewConfidenceCache(c, 2)
	for i := 0; i < 5; i++ {
		row := tab.MustInsert(0.5, nil, Int(int64(i)))
		confLatest(t, cc, NewTuple(nil, lineage.NewVar(row.Var)))
	}
	if n := cc.Len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestConfidenceCacheConcurrency hammers one cache from many
// goroutines (run under -race by `make race` and CI).
func TestConfidenceCacheConcurrency(t *testing.T) {
	c, readOnce, shared, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	want := map[*Tuple]float64{
		readOnce: lineage.Prob(readOnce.Lineage, c),
		shared:   lineage.Prob(shared.Lineage, c),
	}
	readAll := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					for tup, p := range want {
						if got := confLatest(t, cc, tup); math.Abs(got-p) > 1e-12 {
							t.Errorf("concurrent read got %v, want %v", got, p)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	readAll()
	// Mutate between read phases (the catalog itself is not a
	// concurrent structure) and verify the fleet sees the new epoch.
	if err := c.SetConfidence(rows[3].Var, 0.2); err != nil {
		t.Fatal(err)
	}
	want[readOnce] = lineage.Prob(readOnce.Lineage, c)
	want[shared] = lineage.Prob(shared.Lineage, c)
	readAll()
}
