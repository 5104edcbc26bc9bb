package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomPair builds two small random tables with a shared key domain.
func randomPair(r *rand.Rand) (*Catalog, *Table, *Table) {
	c := NewCatalog()
	a, _ := c.CreateTable("A", NewSchema(
		Column{Name: "k", Type: TypeInt},
		Column{Name: "va", Type: TypeInt},
	))
	b, _ := c.CreateTable("B", NewSchema(
		Column{Name: "k", Type: TypeInt},
		Column{Name: "vb", Type: TypeInt},
	))
	nA, nB := r.Intn(12), r.Intn(12)
	for i := 0; i < nA; i++ {
		a.MustInsert(0.1+0.8*r.Float64(), nil, Int(int64(r.Intn(5))), Int(int64(i)))
	}
	for i := 0; i < nB; i++ {
		b.MustInsert(0.1+0.8*r.Float64(), nil, Int(int64(r.Intn(5))), Int(int64(i)))
	}
	return c, a, b
}

// multiset renders rows (values + lineage probability) order-insensitively.
func multiset(c *Catalog, rows []*Tuple) string {
	keys := make([]string, len(rows))
	snap := c.Snapshot()
	defer snap.Release()
	for i, t := range rows {
		keys[i] = t.Key() + fmt.Sprintf("|%.12f", snap.Confidence(t))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

func TestPropertyHashJoinEqualsNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c, a, b := randomPair(rr)
		hj, err := RunAt(&HashJoin{Left: a.Scan(), Right: b.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}, c.Version())
		if err != nil {
			return false
		}
		joined := (&HashJoin{Left: a.Scan(), Right: b.Scan(), LeftKeys: []int{0}, RightKeys: []int{0}}).Schema()
		lk, err := NewColRef(joined, "A", "k")
		if err != nil {
			return false
		}
		rk, err := NewColRef(joined, "B", "k")
		if err != nil {
			return false
		}
		nl, err := RunAt(&NestedLoopJoin{
			Left: a.Scan(), Right: b.Scan(),
			Pred: &Binary{Op: OpEq, Left: lk, Right: rk},
		}, c.Version())
		if err != nil {
			return false
		}
		return multiset(c, hj) == multiset(c, nl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelectionCommutesWithItself(t *testing.T) {
	// σp(σq(R)) ≡ σq(σp(R)), lineage included.
	r := rand.New(rand.NewSource(67))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c, a, _ := randomPair(rr)
		k, err := NewColRef(a.Schema(), "", "k")
		if err != nil {
			return false
		}
		va, err := NewColRef(a.Schema(), "", "va")
		if err != nil {
			return false
		}
		p := &Binary{Op: OpGe, Left: k, Right: Const{Value: Int(int64(rr.Intn(5)))}}
		q := &Binary{Op: OpLt, Left: va, Right: Const{Value: Int(int64(rr.Intn(12)))}}
		pq, err := RunAt(&Select{Input: &Select{Input: a.Scan(), Pred: q}, Pred: p}, c.Version())
		if err != nil {
			return false
		}
		qp, err := RunAt(&Select{Input: &Select{Input: a.Scan(), Pred: p}, Pred: q}, c.Version())
		if err != nil {
			return false
		}
		return multiset(c, pq) == multiset(c, qp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionCommutesUpToOrder(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c, a, b := randomPair(rr)
		// Project both sides down to the shared (k) column so the
		// schemas are union-compatible.
		ka, err := NewColRef(a.Schema(), "", "k")
		if err != nil {
			return false
		}
		kb, err := NewColRef(b.Schema(), "", "k")
		if err != nil {
			return false
		}
		pa := func() Operator { return &Project{Input: a.Scan(), Exprs: []Expr{ka}} }
		pb := func() Operator { return &Project{Input: b.Scan(), Exprs: []Expr{kb}} }
		ab, err := RunAt(&Union{Left: pa(), Right: pb()}, c.Version())
		if err != nil {
			return false
		}
		ba, err := RunAt(&Union{Left: pb(), Right: pa()}, c.Version())
		if err != nil {
			return false
		}
		return multiset(c, ab) == multiset(c, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDistinctConfidenceDominatesAnyInput(t *testing.T) {
	// The OR-merged confidence of a distinct row is at least the
	// confidence of each contributing duplicate.
	r := rand.New(rand.NewSource(73))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c, a, _ := randomPair(rr)
		k, err := NewColRef(a.Schema(), "", "k")
		if err != nil {
			return false
		}
		plain, err := RunAt(&Project{Input: a.Scan(), Exprs: []Expr{k}}, c.Version())
		if err != nil {
			return false
		}
		distinct, err := RunAt(&Project{Input: a.Scan(), Exprs: []Expr{k}, Distinct: true}, c.Version())
		if err != nil {
			return false
		}
		maxByKey := map[string]float64{}
		for _, t := range plain {
			p := c.Snapshot().Confidence(t)
			if p > maxByKey[t.Key()] {
				maxByKey[t.Key()] = p
			}
		}
		for _, t := range distinct {
			if c.Snapshot().Confidence(t) < maxByKey[t.Key()]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSVRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c, a, _ := randomPair(rr)
		var buf bytes.Buffer
		if err := WriteCSV(a, c.Snapshot(), &buf); err != nil {
			return false
		}
		c2 := NewCatalog()
		b, _ := c2.CreateTable("A2", NewSchema(
			Column{Name: "k", Type: TypeInt},
			Column{Name: "va", Type: TypeInt},
		))
		if _, err := LoadCSV(b, &buf); err != nil {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		loaded := b.RowsAt(c2.Snapshot())
		for i, row := range a.RowsAt(c.Snapshot()) {
			got := loaded[i]
			for j := range row.Values() {
				if !Equal(row.Values()[j], got.Values()[j]) {
					return false
				}
			}
			if row.Confidence() != got.Confidence() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
