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

// confCacheFixture builds a catalog with base rows and three derived
// tuples: one read-once, and two shared formulas (built with lineage.Or,
// so v0 really occurs twice in each) that both read rows[0].
func confCacheFixture(t *testing.T) (c *Catalog, readOnce, shared, sibling *Tuple, rows []*BaseTuple) {
	t.Helper()
	c = NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{0.3, 0.4, 0.1, 0.8} {
		rows = append(rows, tab.MustInsert(p, nil, Int(int64(i))))
	}
	v := func(i int) *lineage.Expr { return lineage.NewVar(rows[i].Var()) }
	readOnce = NewTuple([]Value{Int(1)}, lineage.And(lineage.Or(v(0), v(1)), v(2)))
	shared = NewTuple([]Value{Int(2)}, lineage.Or(lineage.And(v(0), v(1)), lineage.And(v(0), v(3))))
	sibling = NewTuple([]Value{Int(3)}, lineage.Or(lineage.And(v(0), v(2)), lineage.And(v(0), v(1), v(3))))
	return c, readOnce, shared, sibling, rows
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

// readOnceUncached asks for a read-once tuple's confidence at the latest
// version and fails unless the answer is the tree walk's, bit for bit,
// and the cache is left as it was: no entry, no postings, no counter.
// The caller's accumulator alone counts the row, as read-once.
func readOnceUncached(t *testing.T, cc *ConfidenceCache, tup *Tuple) {
	t.Helper()
	if !tup.Lineage.ReadOnce() {
		t.Fatalf("fixture: %s is not read-once", tup.Lineage)
	}
	cc.mu.Lock()
	n, postings, stats := len(cc.entries), len(cc.postings), cc.stats
	cc.mu.Unlock()
	snap := cc.cat.Snapshot()
	defer snap.Release()
	var acc ConfCacheStats
	p, err := cc.ConfidenceAtAcc(tup, snap, &acc)
	if err != nil {
		t.Fatal(err)
	}
	if want := lineage.Prob(tup.Lineage, snap); p != want {
		t.Errorf("read-once %s = %v, want exactly %v", tup.Lineage, p, want)
	}
	if acc != (ConfCacheStats{Rows: [numLineageClasses]int64{LineageReadOnce: 1}}) {
		t.Errorf("read-once row accumulated %+v, want one read-once row and nothing else", acc)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.entries) != n || len(cc.postings) != postings || cc.stats != stats {
		t.Errorf("a read-once formula touched the cache: %d→%d entries, %d→%d posting lists, stats %+v→%+v",
			n, len(cc.entries), postings, len(cc.postings), stats, cc.stats)
	}
}

func TestConfidenceCacheValuesAndHits(t *testing.T) {
	c, readOnce, shared, sibling, _ := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)

	// Read-once formulas are computed directly, bit-identical to the
	// tree walk (both compute the same independent product), and never
	// cached.
	readOnceUncached(t, cc, readOnce)
	for _, tu := range []*Tuple{shared, sibling} {
		if got, want := confLatest(t, cc, tu), lineage.Prob(tu.Lineage, c.AssignmentAt(c.Version())); math.Abs(got-want) > 1e-12 {
			t.Fatalf("shared confidence of %s = %v, want %v", tu.Lineage, got, want)
		}
	}

	st := cc.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/2", st.Hits, st.Misses)
	}
	if st.Rows[LineageReadOnce] != 0 {
		t.Errorf("the cache counted read-once rows it never served: %+v", st)
	}
	if st.Rows[LineageBounded] != 2 || st.Pivots[LineageBounded] == 0 {
		t.Errorf("bounded class must record rows and pivots, got %+v", st)
	}
	if st.Pivots[LineageReadOnce] != 0 {
		t.Errorf("read-once path must never pivot, got %d", st.Pivots[LineageReadOnce])
	}
	if n := cc.Len(); n != 2 {
		t.Errorf("cache holds %d entries, want the 2 shared formulas", n)
	}

	readOnceUncached(t, cc, readOnce)
	confLatest(t, cc, shared)
	confLatest(t, cc, sibling)
	st = cc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after second pass: hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}
}

// TestConfidenceCacheInvalidation is the guard the optimizer depends
// on: if the epoch check were removed, the cache would keep serving the
// pre-mutation probability and this test would fail.
func TestConfidenceCacheInvalidation(t *testing.T) {
	c, readOnce, shared, sibling, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	before := confLatest(t, cc, shared)
	confLatest(t, cc, sibling)
	readOnceUncached(t, cc, readOnce)

	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rows[0].Var(), 0.95) }); err != nil {
		t.Fatal(err)
	}
	after := confLatest(t, cc, shared)
	want := lineage.Prob(shared.Lineage, c.AssignmentAt(c.Version()))
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("post-SetConfidence cache served %v, fresh evaluation gives %v", after, want)
	}
	if after == before {
		t.Fatalf("confidence unchanged (%v) after a base-tuple update the formula depends on", after)
	}
	st := cc.Stats()
	// The commit marked the two dependent entries stale; the one read
	// after it recomputed and refreshed its entry, and a second read hits.
	if st.Invalidated != 2 || st.Misses != 3 {
		t.Fatalf("invalidated=%d misses=%d, want 2 entries invalidated at commit and 1 miss after it", st.Invalidated, st.Misses)
	}
	if confLatest(t, cc, shared); cc.Stats().Misses != 3 {
		t.Fatal("the refreshed entry must serve the next read")
	}
	// The read-once formula reads rows[0] too: it sees the new value.
	readOnceUncached(t, cc, readOnce)

	// Deleting base rows also bumps the confidence epoch.
	tab, err := c.Table("B")
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.ConfEpoch()
	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, nil); return err }); err != nil {
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
	pivot := lineage.NewVar(tab.MustInsert(0.5, nil, Int(-1)).Var())
	for i := 0; i < 5; i++ {
		row := lineage.NewVar(tab.MustInsert(0.5, nil, Int(int64(i))).Var())
		confLatest(t, cc, NewTuple(nil, lineage.Or(lineage.And(pivot, row), lineage.And(pivot, lineage.Not(row)))))
	}
	if n := cc.Len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	} else if n != 2 {
		t.Fatalf("cache holds %d entries after 5 distinct shared formulas, want it full at 2", n)
	}
}

// TestConfidenceCacheConcurrency hammers one cache from many
// goroutines (run under -race by `make race` and CI).
func TestConfidenceCacheConcurrency(t *testing.T) {
	c, readOnce, shared, _, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	want := map[*Tuple]float64{
		readOnce: lineage.Prob(readOnce.Lineage, c.AssignmentAt(c.Version())),
		shared:   lineage.Prob(shared.Lineage, c.AssignmentAt(c.Version())),
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
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rows[3].Var(), 0.2) }); err != nil {
		t.Fatal(err)
	}
	want[readOnce] = lineage.Prob(readOnce.Lineage, c.AssignmentAt(c.Version()))
	want[shared] = lineage.Prob(shared.Lineage, c.AssignmentAt(c.Version()))
	readAll()
}

// TestConfidenceCacheStaleSnapshot: a reader still holding the snapshot
// it took at epoch N, reading after a commit advanced the cache to N+1,
// gets N's confidence — a miss evaluated at its own snapshot, never the
// entry recomputed for N+1 — and its late insert does not overwrite
// that entry. An entry the commit did not touch still serves it.
func TestConfidenceCacheStaleSnapshot(t *testing.T) {
	c, readOnce, shared, sibling, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	v := func(i int) *lineage.Expr { return lineage.NewVar(rows[i].Var()) }
	untouched := NewTuple(nil, lineage.Or(lineage.And(v(1), v(2)), lineage.And(v(1), v(3))))
	old := c.Snapshot()
	defer old.Release()
	at := func(s *Snapshot, tu *Tuple) float64 {
		t.Helper()
		p, err := cc.ConfidenceAtAcc(tu, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wantOld := map[*Tuple]float64{shared: at(old, shared), untouched: at(old, untouched)}

	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rows[0].Var(), 0.95) }); err != nil { // epoch N → N+1; shared, sibling and readOnce read rows[0]
		t.Fatal(err)
	}
	wantNew := lineage.Prob(shared.Lineage, c.AssignmentAt(c.Version()))
	if wantNew == wantOld[shared] {
		t.Fatal("fixture: the commit does not change the shared formula's confidence")
	}
	before := cc.Stats()
	for i := 0; i < 2; i++ { // the second read would hit a wrongly inserted old value
		if got := at(old, shared); got != wantOld[shared] {
			t.Fatalf("snapshot at epoch N read %v after the advance, want its own %v (N+1's is %v)", got, wantOld[shared], wantNew)
		}
	}
	if got := at(old, sibling); got != lineage.Prob(sibling.Lineage, old) { // never cached before: a late insert attempt
		t.Fatalf("uncached formula at the old snapshot = %v", got)
	}
	if got := at(old, readOnce); got != lineage.Prob(readOnce.Lineage, old) { // computed directly at the old snapshot
		t.Fatalf("read-once formula at the old snapshot = %v", got)
	}
	if got := at(old, untouched); got != wantOld[untouched] {
		t.Fatalf("untouched entry served %v at the old snapshot, want %v", got, wantOld[untouched])
	}
	st := cc.Stats()
	if st.Misses-before.Misses != 3 || st.Hits-before.Hits != 1 {
		t.Fatalf("old-snapshot reads: %d misses, %d hits; want 3 misses (entries newer than the snapshot, or absent) and 1 hit (the untouched entry)", st.Misses-before.Misses, st.Hits-before.Hits)
	}
	readOnceUncached(t, cc, readOnce)
	// Current readers see N+1's values: nothing computed at N landed.
	for _, tu := range []*Tuple{shared, sibling, readOnce, untouched} {
		if got, want := confLatest(t, cc, tu), lineage.Prob(tu.Lineage, c.AssignmentAt(c.Version())); got != want {
			t.Fatalf("after the stale reads the cache serves %v for %s, want %v", got, tu.Lineage, want)
		}
	}
}

// TestConfidenceCachePostingsStayExact: after churning ten times the
// capacity in distinct formulas, with commits in between, the inverted
// index lists exactly the resident entries' variables — nothing of an
// evicted entry is left behind.
func TestConfidenceCachePostingsStayExact(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	const capacity, nVars = 32, 48
	x := c.Begin()
	vars := make([]lineage.Var, nVars)
	for i := range vars {
		vars[i] = x.MustInsert(tab, 0.5, nil, Int(int64(i))).Var()
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	cc := NewConfidenceCache(c, capacity)
	for i := 0; i < 10*capacity; i++ {
		a, b, d := vars[i%nVars], vars[(i/nVars+i+1)%nVars], vars[(7*i+3)%nVars]
		x, y, z := lineage.NewVar(a), lineage.NewVar(b), lineage.NewVar(d)
		confLatest(t, cc, NewTuple(nil, lineage.Or(lineage.And(x, y), lineage.And(x, z), lineage.NewVar(lineage.Var(1000+i)))))
		if i%5 == 0 {
			readOnceUncached(t, cc, NewTuple(nil, lineage.Or(y, lineage.NewVar(lineage.Var(2000+i)))))
		}
		if i%16 == 0 {
			if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a, 0.25+float64(i%3)/4) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.entries) != capacity {
		t.Fatalf("cache holds %d entries, want it full at %d", len(cc.entries), capacity)
	}
	want := map[lineage.Var]int{}
	for _, e := range cc.entries {
		for _, v := range e.vars {
			want[v]++
		}
	}
	if len(cc.postings) != len(want) {
		t.Errorf("postings index %d variables, resident entries read %d", len(cc.postings), len(want))
	}
	for v, list := range cc.postings {
		if len(list) != want[v] {
			t.Errorf("variable %d: %d postings, %d resident entries read it", v, len(list), want[v])
		}
		for _, e := range list {
			if cc.entries[e.key] != e {
				t.Errorf("variable %d lists evicted entry %s", v, e.key)
			}
		}
	}
}

// TestConfidenceCacheReadersRaceCommits runs readers — each on its own
// snapshot, held across commits — against a committing writer (under
// -race in CI): every answer is the formula's confidence at the
// reader's snapshot, whichever epoch the cache stands at by then.
func TestConfidenceCacheReadersRaceCommits(t *testing.T) {
	c, readOnce, shared, _, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rows[i%len(rows)].Var(), dyadic(1+i%15)) }); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := c.Snapshot()
				for i := 0; i < 4; i++ {
					for _, tu := range []*Tuple{readOnce, shared} {
						got, err := cc.ConfidenceAtAcc(tu, snap, nil)
						if _, want, _, _ := evalClassified(tu.Lineage, snap); err != nil || got != want {
							t.Errorf("version %d: cache gave %v (%v), the snapshot's confidence is %v", snap.Version(), got, err, want)
						}
					}
				}
				snap.Release()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}
