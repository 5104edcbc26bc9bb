package relation

import (
	"math"
	"math/rand"
	"testing"

	"pcqe/internal/lineage"
)

// randReadOnce builds a random read-once formula over vs, each variable
// once: an AND/OR tree with NOTs sprinkled in.
func randReadOnce(r *rand.Rand, vs []lineage.Var) *lineage.Expr {
	var e *lineage.Expr
	if len(vs) == 1 {
		e = lineage.NewVar(vs[0])
	} else {
		var kids []*lineage.Expr
		for rest := vs; len(rest) > 0; {
			n := 1 + r.Intn(len(rest))
			if n == len(vs) { // split at least in two
				n--
			}
			kids = append(kids, randReadOnce(r, rest[:n]))
			rest = rest[n:]
		}
		if r.Intn(2) == 0 {
			e = lineage.And(kids...)
		} else {
			e = lineage.Or(kids...)
		}
	}
	if r.Intn(4) == 0 {
		e = lineage.Not(e)
	}
	return e
}

// TestReadOnceConfidenceDifferential holds ConfidenceAtAcc to the
// reference tree walk (lineage.ProbExact) over generated formulas, at
// the latest snapshot and at a historical one. Read-once formulas —
// with NOTs, past the 16 variables ReadOnce checks without allocating,
// reading a variable tombstoned at the snapshot and one that never
// existed — must come back bit for bit, cold and again once the cache
// is warm, and must leave the cache as they found it. Shared formulas
// (built with lineage.Or over a repeated variable) are cached: within
// 1e-12 of the tree walk, and a hit returns the miss's bits.
func TestReadOnceConfidenceDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "k", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	const nBase = 80
	x := c.Begin()
	base := make([]lineage.Var, nBase)
	for i := range base {
		base[i] = x.MustInsert(tab, r.Float64(), nil, Int(int64(i))).Var()
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	live := c.Version()
	tomb := base[7]
	k, err := NewColRef(tab.Schema(), "", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Delete(tab, &Binary{Op: OpEq, Left: k, Right: Const{Value: Int(7)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	unknown := lineage.Var(10_000)
	others := append(append([]lineage.Var(nil), base[:7]...), base[8:]...)

	var readOnce, shared []*Tuple
	wide := 0
	for i := 0; i < 300; i++ {
		perm := r.Perm(len(others))
		n := 1 + r.Intn(40)
		vs := make([]lineage.Var, n)
		for j := range vs {
			vs[j] = others[perm[j]]
		}
		switch i % 10 {
		case 0:
			vs[0] = tomb
		case 1:
			vs[0] = unknown
		}
		if n > 16 {
			wide++
		}
		e := randReadOnce(r, vs)
		if !e.ReadOnce() {
			t.Fatalf("generated %s is not read-once", e)
		}
		readOnce = append(readOnce, &Tuple{Lineage: e})
		if n >= 2 && len(shared) < 60 {
			s := lineage.Or(lineage.And(lineage.NewVar(vs[0]), e), lineage.And(lineage.NewVar(vs[0]), lineage.NewVar(vs[n-1])))
			if !s.ReadOnce() {
				shared = append(shared, &Tuple{Lineage: s})
			}
		}
	}
	if wide == 0 || len(shared) == 0 {
		t.Fatalf("generator: %d formulas past 16 variables, %d shared", wide, len(shared))
	}

	cc := NewConfidenceCache(c, 0)
	now := c.Snapshot()
	defer now.Release()
	past, err := c.SnapshotAt(live)
	if err != nil {
		t.Fatal(err)
	}
	defer past.Release()
	if now.ProbOf(tomb) != 0 || past.ProbOf(tomb) == 0 {
		t.Fatalf("fixture: the tombstoned variable reads %v now and %v before the delete", now.ProbOf(tomb), past.ProbOf(tomb))
	}

	exact := func(tu *Tuple, snap *Snapshot) float64 {
		p, err := lineage.ProbExact(tu.Lineage, snap, lineage.DefaultSharedLimit)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	at := func(tu *Tuple, snap *Snapshot) float64 {
		p, err := cc.ConfidenceAtAcc(tu, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	readOnceMatch := func(pass string) {
		t.Helper()
		for i, tu := range readOnce {
			for _, snap := range []*Snapshot{now, past} {
				if got, want := at(tu, snap), exact(tu, snap); got != want {
					t.Fatalf("%s: read-once formula %d at version %d = %v, tree walk %v", pass, i, snap.Version(), got, want)
				}
			}
		}
		if n := cc.Len(); n != 0 && pass == "cold" {
			t.Fatalf("cold pass: read-once formulas left %d cache entries", n)
		}
	}

	readOnceMatch("cold")
	cold := make([]float64, len(shared))
	for i, tu := range shared {
		cold[i] = at(tu, now)
		if want := exact(tu, now); math.Abs(cold[i]-want) > 1e-12 {
			t.Fatalf("shared formula %d = %v, tree walk %v", i, cold[i], want)
		}
		if got, want := at(tu, past), exact(tu, past); math.Abs(got-want) > 1e-12 {
			t.Fatalf("shared formula %d at the historical snapshot = %v, tree walk %v", i, got, want)
		}
	}
	warm := cc.Stats()
	if warm.Misses != int64(len(shared)) || cc.Len() != len(shared) {
		t.Fatalf("warming: %d misses, %d entries; want one each per shared formula (%d)", warm.Misses, cc.Len(), len(shared))
	}
	cc.mu.Lock()
	postings := len(cc.postings)
	cc.mu.Unlock()

	readOnceMatch("warm")
	for i, tu := range shared {
		if got := at(tu, now); got != cold[i] {
			t.Fatalf("shared formula %d: hit %v, miss %v", i, got, cold[i])
		}
	}
	st := cc.Stats()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if st.Hits-warm.Hits != int64(len(shared)) || st.Misses != warm.Misses {
		t.Errorf("warm pass: %d hits, %d misses; want %d hits and no miss", st.Hits-warm.Hits, st.Misses-warm.Misses, len(shared))
	}
	if len(cc.entries) != len(shared) || len(cc.postings) != postings {
		t.Errorf("read-once formulas changed the warm cache: %d entries, %d posting lists (want %d, %d)", len(cc.entries), len(cc.postings), len(shared), postings)
	}
}
