package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
)

func cacheCatalog(t *testing.T) (*relation.Catalog, *relation.Table) {
	t.Helper()
	c := relation.NewCatalog()
	tab, err := c.CreateTable("T", relation.NewSchema(
		relation.Column{Name: "k", Type: relation.TypeInt},
		relation.Column{Name: "v", Type: relation.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tab.MustInsert(0.2+0.07*float64(i), nil, relation.Int(int64(i%3)), relation.Int(int64(i)))
	}
	return c, tab
}

// cachedLatest runs q through the cache at a fresh snapshot of the
// latest committed version.
func cachedLatest(pc *PlanCache, cat *relation.Catalog, q string) ([]*relation.Tuple, *relation.Schema, error) {
	snap := cat.Snapshot()
	defer snap.Release()
	res, err := pc.QuerySnap(snap, q)
	return res.Rows, res.Schema, err
}

func TestPlanCacheHitsAndEquivalence(t *testing.T) {
	cat, _ := cacheCatalog(t)
	pc := NewPlanCache(8)
	m := obs.New()
	pc.SetMetrics(m)
	queries := []string{
		`SELECT v FROM T WHERE k = 1 ORDER BY v`,
		`SELECT v FROM T WHERE k = 2 ORDER BY v`,
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			got, _, err := cachedLatest(pc, cat, q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := queryLatest(cat, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d rows, want %d", round, q, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("round %d %s: row %d differs", round, q, i)
				}
			}
		}
	}
	hits, misses := pc.Stats()
	if hits != 4 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 4/2", hits, misses)
	}
	snap := m.Snapshot().String()
	for _, metric := range []string{"sql.plancache.hits 4", "sql.plancache.misses 2"} {
		if !strings.Contains(snap, metric) {
			t.Errorf("metrics snapshot missing %q:\n%s", metric, snap)
		}
	}
	if pc.Len() != 2 {
		t.Errorf("cache holds %d plans, want 2", pc.Len())
	}
}

// TestPlanCacheParameterizedFingerprint: queries differing only in
// literal values share one plan shape but remain distinct cache keys
// (the engine re-plans per literal; the fingerprint must not collapse
// different constants into one entry).
func TestPlanCacheParameterizedFingerprint(t *testing.T) {
	stmt1, err := Parse(`SELECT v FROM T WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	stmt2, err := Parse(`SELECT v FROM T WHERE k = 2`)
	if err != nil {
		t.Fatal(err)
	}
	shape1, lits1 := fingerprintStmt(stmt1)
	shape2, lits2 := fingerprintStmt(stmt2)
	if shape1 != shape2 {
		t.Errorf("shapes differ:\n%s\n%s", shape1, shape2)
	}
	if len(lits1) != 1 || len(lits2) != 1 {
		t.Fatalf("literal counts: %d, %d", len(lits1), len(lits2))
	}
	if cacheKey(shape1, lits1) == cacheKey(shape2, lits2) {
		t.Error("different literals must produce different cache keys")
	}
	// Identifier case folds into one shape.
	stmt3, err := Parse(`select V from t where K = 1`)
	if err != nil {
		t.Fatal(err)
	}
	shape3, lits3 := fingerprintStmt(stmt3)
	if cacheKey(shape1, lits1) != cacheKey(shape3, lits3) {
		t.Error("identifier case must not split cache entries")
	}
	// String literal case must split them.
	stmt4, _ := Parse(`SELECT v FROM T WHERE s = 'ABC'`)
	stmt5, _ := Parse(`SELECT v FROM T WHERE s = 'abc'`)
	s4, l4 := fingerprintStmt(stmt4)
	s5, l5 := fingerprintStmt(stmt5)
	if cacheKey(s4, l4) == cacheKey(s5, l5) {
		t.Error("string literal case must split cache entries")
	}
	// An INTEGER and a REAL literal of one value must split them too:
	// Value.Key folds 1.0 onto 1, the plan's result type does not.
	s6, l6 := fingerprintStmt(mustParse(t, `SELECT 1 FROM T`))
	s7, l7 := fingerprintStmt(mustParse(t, `SELECT 1.0 FROM T`))
	if cacheKey(s6, l6) == cacheKey(s7, l7) {
		t.Error("SELECT 1 and SELECT 1.0 share a cache entry")
	}
}

// TestPlanCacheInvalidationOnMutation would pass with a cache that
// never invalidates only if it returned stale rows — the assertions
// below fail in that world, guarding the catalog-version check.
func TestPlanCacheInvalidationOnMutation(t *testing.T) {
	cat, tab := cacheCatalog(t)
	pc := NewPlanCache(8)
	const q = `SELECT v FROM T WHERE k = 1 ORDER BY v`
	rows, _, err := cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rows)
	if _, err := tab.Insert([]relation.Value{relation.Int(1), relation.Int(99)}, 0.9, nil); err != nil {
		t.Fatal(err)
	}
	rows, _, err = cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != before+1 {
		t.Fatalf("post-insert cache served %d rows, want %d (stale plan?)", len(rows), before+1)
	}
	if hits, misses := pc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (insert must invalidate)", hits, misses)
	}

	// An index created after caching must also invalidate: the cached
	// plan would silently keep scanning.
	if _, _, err := cachedLatest(pc, cat, q); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cachedLatest(pc, cat, q); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pc.Stats(); hits != 1 {
		t.Fatalf("hits=%d, want exactly 1 (CreateIndex must invalidate)", hits)
	}
}

// TestPlanCacheInvalidationOnConfidenceEpoch: a _confidence-dependent
// query must re-plan when base confidences change even though no rows
// or schema did — the AttachConfidence operator bakes probabilities
// into the plan's output.
func TestPlanCacheInvalidationOnConfidenceEpoch(t *testing.T) {
	cat, tab := cacheCatalog(t)
	pc := NewPlanCache(8)
	const q = `SELECT v FROM T WHERE _confidence > 0.5 ORDER BY v`
	rows, _, err := cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rows)
	// Raise a low-confidence row above the threshold: no catalog
	// version change, only the confidence epoch moves.
	target := tab.RowsAt(cat.Snapshot())[0]
	if target.Confidence() > 0.5 {
		t.Fatalf("fixture: row 0 confidence %v already above threshold", target.Confidence())
	}
	x := cat.Begin()
	if err := x.SetConfidence(target.Var(), 0.95); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _, err = cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != before+1 {
		t.Fatalf("post-SetConfidence cache served %d rows, want %d (epoch not checked?)", len(rows), before+1)
	}

	// A confidence-insensitive query is untouched by epoch bumps.
	const plain = `SELECT v FROM T WHERE k = 1`
	if _, _, err := cachedLatest(pc, cat, plain); err != nil {
		t.Fatal(err)
	}
	x = cat.Begin()
	if err := x.SetConfidence(target.Var(), 0.85); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cachedLatest(pc, cat, plain); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pc.Stats(); hits != 1 {
		t.Fatalf("hits=%d, want 1: epoch bumps must not evict confidence-insensitive plans", hits)
	}
}

// TestPlanCacheConfidenceInOnClause: a _confidence reference inside an
// ON clause's IN-subquery bakes a confidence-dependent key set into the
// plan just as one in WHERE does, so the entry must follow the
// confidence epoch.
func TestPlanCacheConfidenceInOnClause(t *testing.T) {
	cat, tab := cacheCatalog(t)
	pc := NewPlanCache(8)
	const q = `SELECT a.v FROM T a JOIN T b ON a.v = b.v AND b.v IN (SELECT v FROM T WHERE _confidence > 0.5)`
	rows, _, err := cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rows)
	x := cat.Begin()
	if err := x.SetConfidence(tab.RowsAt(cat.Snapshot())[0].Var(), 0.95); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _, err = cachedLatest(pc, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != before+1 {
		t.Fatalf("after SetConfidence the cache served %d rows, want %d", len(rows), before+1)
	}
}

func TestPlanCacheEvictionRespectsCapacity(t *testing.T) {
	cat, _ := cacheCatalog(t)
	pc := NewPlanCache(3)
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf(`SELECT v FROM T WHERE k = %d`, i)
		if _, _, err := cachedLatest(pc, cat, q); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() > 3 {
		t.Fatalf("cache holds %d plans, capacity 3", pc.Len())
	}
	// The most recent template must still be resident.
	if _, _, err := cachedLatest(pc, cat, `SELECT v FROM T WHERE k = 9`); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pc.Stats(); hits != 1 {
		t.Fatalf("hits=%d, want 1 (LRU should keep the newest entry)", hits)
	}
}

// TestPlanCacheConcurrency drives one cache from many goroutines over
// a small template set; the volcano operators in a cached entry are
// single-use at a time, so concurrent checkouts of the same key must
// fall back to fresh planning rather than sharing state. Run under
// -race by `make race` and CI.
func TestPlanCacheConcurrency(t *testing.T) {
	cat, _ := cacheCatalog(t)
	pc := NewPlanCache(8)
	want := map[string]int{}
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT v FROM T WHERE k = %d`, i%3)
		rows, _, err := queryLatest(cat, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[queries[i]] = len(rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				rows, _, err := cachedLatest(pc, cat, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if len(rows) != want[q] {
					t.Errorf("%s: %d rows, want %d", q, len(rows), want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := pc.Stats(); hits+misses != 8*50 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*50)
	}
}

// TestPlanCacheHitFlagAndBypasses pins the per-call Hit flag and the two
// ways around the cache: a historical snapshot and a nil cache both plan
// afresh, report a miss and leave the cache and its counters alone.
func TestPlanCacheHitFlagAndBypasses(t *testing.T) {
	cat, tab := cacheCatalog(t)
	pc := NewPlanCache(8)
	const q = `SELECT v FROM T WHERE k = 1 ORDER BY v`
	before := cat.Version()
	tab.MustInsert(0.5, nil, relation.Int(1), relation.Int(100))

	latest := cat.Snapshot()
	defer latest.Release()
	for i, wantHit := range []bool{false, true} {
		res, err := pc.QuerySnap(latest, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit != wantHit || len(res.Rows) != 4 || res.Info == nil || res.Schema.Len() != 1 {
			t.Fatalf("call %d: hit=%v rows=%d info=%v, want hit=%v rows=4", i, res.Hit, len(res.Rows), res.Info, wantHit)
		}
	}

	old, err := cat.SnapshotAt(before)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	for name, cache := range map[string]*PlanCache{"historical": pc, "nil cache": nil} {
		snap := latest
		wantRows := 4
		if cache != nil {
			snap, wantRows = old, 3
		}
		res, err := cache.QuerySnap(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit || len(res.Rows) != wantRows {
			t.Fatalf("%s: hit=%v rows=%d, want a miss with %d rows", name, res.Hit, len(res.Rows), wantRows)
		}
	}
	if hits, misses := pc.Stats(); hits != 1 || misses != 1 || pc.Len() != 1 {
		t.Fatalf("bypasses touched the cache: hits=%d misses=%d len=%d, want 1/1/1", hits, misses, pc.Len())
	}
}
