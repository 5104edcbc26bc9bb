package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// The MVCC stress suite hammers the catalog with concurrent readers and
// writers (run under -race by `make mvcc-stress` and the CI resilience
// job). The invariant under test is snapshot isolation itself: two
// confidences are always written together so that they sum to exactly
// 1.0, using sixteenths so the sum is exact in binary floating point —
// any snapshot observing a different sum has seen a torn write.

// dyadic returns i-th probability from the exact grid {0/16 … 16/16}.
func dyadic(i int) float64 { return float64(i%17) / 16 }

func newStressPair(t *testing.T) (*Catalog, *Table, *BaseTuple, *BaseTuple) {
	t.Helper()
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(1.0, nil, Int(1), Int(10))
	b := tab.MustInsert(0.0, nil, Int(2), Int(20))
	return c, tab, a, b
}

// checkPair asserts the reader-side invariant on one snapshot: the two
// confidences sum to exactly 1 and re-reading through the same snapshot
// returns identical values.
func checkPair(t *testing.T, s *Snapshot, a, b *BaseTuple) {
	pa, pb := s.ProbOf(a.Var()), s.ProbOf(b.Var())
	if pa+pb != 1.0 {
		t.Errorf("torn read at version %d: %v + %v = %v", s.Version(), pa, pb, pa+pb)
	}
	if again := s.ProbOf(a.Var()); again != pa {
		t.Errorf("snapshot at version %d unstable: %v then %v", s.Version(), pa, again)
	}
}

func TestMVCCStressReadersNeverSeeTornWrites(t *testing.T) {
	c, _, a, b := newStressPair(t)

	const (
		writers       = 4
		commitsPer    = 250
		readerThreads = 4
	)
	var wg sync.WaitGroup
	done := make(chan struct{})

	var writersLeft atomic.Int64
	writersLeft.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			defer func() {
				if writersLeft.Add(-1) == 0 {
					close(done)
				}
			}()
			for i := 0; i < commitsPer; i++ {
				p := dyadic(seed*7 + i)
				x := c.Begin()
				if err := x.SetConfidence(a.Var(), p); err != nil {
					t.Errorf("writer: %v", err)
					x.Rollback()
					return
				}
				if err := x.SetConfidence(b.Var(), 1-p); err != nil {
					t.Errorf("writer: %v", err)
					x.Rollback()
					return
				}
				if _, err := x.Commit(); err != nil {
					t.Errorf("writer commit: %v", err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readerThreads; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion int64
			for {
				s := c.Snapshot()
				if s.Version() < lastVersion {
					t.Errorf("snapshot versions not monotone: %d after %d", s.Version(), lastVersion)
					s.Release()
					return
				}
				lastVersion = s.Version()
				checkPair(t, s, a, b)
				s.Release()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	if open := c.OpenSnapshots(); open != 0 {
		t.Errorf("open snapshots after stress = %d, want 0", open)
	}
}

// TestMVCCStressCommitFaultsStayAtomic injects a panic into every fifth
// commit while readers watch the invariant: failed commits must be
// invisible, successful ones must produce a gap-free version sequence.
func TestMVCCStressCommitFaultsStayAtomic(t *testing.T) {
	c, _, a, b := newStressPair(t)
	startVersion := c.Version()

	defer fault.Reset()
	var probeHits atomic.Int64
	fault.Register("relation.txn.commit", func() {
		if probeHits.Add(1)%5 == 0 {
			panic("induced commit fault")
		}
	})
	fault.Enable()

	const (
		writers    = 3
		commitsPer = 200
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed []int64
	)
	done := make(chan struct{})
	var writersLeft atomic.Int64
	writersLeft.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			defer func() {
				if writersLeft.Add(-1) == 0 {
					close(done)
				}
			}()
			for i := 0; i < commitsPer; i++ {
				p := dyadic(seed*5 + i)
				x := c.Begin()
				if err := x.SetConfidence(a.Var(), p); err != nil {
					t.Errorf("writer: %v", err)
					x.Rollback()
					return
				}
				if err := x.SetConfidence(b.Var(), 1-p); err != nil {
					t.Errorf("writer: %v", err)
					x.Rollback()
					return
				}
				v, err := x.Commit()
				if err != nil {
					continue // induced fault: the commit rolled back
				}
				mu.Lock()
				committed = append(committed, v)
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := c.Snapshot()
				checkPair(t, s, a, b)
				s.Release()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	// Every successful commit produced exactly one version; the sequence
	// is gap-free and ends at the catalog's current version.
	sort.Slice(committed, func(i, j int) bool { return committed[i] < committed[j] })
	for i, v := range committed {
		if want := startVersion + int64(i) + 1; v != want {
			t.Fatalf("commit versions have a gap: position %d is %d, want %d", i, v, want)
		}
	}
	if final := c.Version(); final != startVersion+int64(len(committed)) {
		t.Fatalf("final version = %d, want %d (start %d + %d commits)",
			final, startVersion+int64(len(committed)), startVersion, len(committed))
	}
	if len(committed) == 0 || len(committed) == writers*commitsPer {
		t.Fatalf("fault injection ineffective: %d/%d commits succeeded", len(committed), writers*commitsPer)
	}
	// The last writer to win left an intact pair.
	s := c.Snapshot()
	checkPair(t, s, a, b)
	s.Release()
}

// TestMVCCStressScansAttributableToOneVersion runs pinned scans against
// a table whose writers rewrite every row's value to the same number in
// one transaction: a result mixing two committed versions would show
// two different values.
func TestMVCCStressScansAttributableToOneVersion(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("Reg", NewSchema(Column{Name: "v", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8
	for i := 0; i < rows; i++ {
		tab.MustInsert(1.0, nil, Int(0))
	}

	const (
		writers    = 2
		commitsPer = 150
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	var writersLeft atomic.Int64
	writersLeft.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			defer func() {
				if writersLeft.Add(-1) == 0 {
					close(done)
				}
			}()
			for i := 0; i < commitsPer; i++ {
				x := c.Begin()
				if _, err := x.Update(tab, nil, []UpdateSpec{
					{Column: 0, Value: Const{Value: Int(int64(seed*commitsPer + i))}},
				}); err != nil {
					t.Errorf("writer: %v", err)
					x.Rollback()
					return
				}
				if _, err := x.Commit(); err != nil {
					t.Errorf("writer commit: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := c.Snapshot()
				got, err := RunAt(tab.Scan(), s.Version())
				if err != nil {
					t.Errorf("reader: %v", err)
					s.Release()
					return
				}
				if len(got) != rows {
					t.Errorf("scan at version %d: %d rows, want %d", s.Version(), len(got), rows)
				} else {
					first, _ := got[0].Values[0].AsInt()
					for _, tu := range got[1:] {
						v, _ := tu.Values[0].AsInt()
						if v != first {
							t.Errorf("scan at version %d mixes committed states: %d and %d", s.Version(), first, v)
							break
						}
					}
				}
				s.Release()
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

// TestMVCCStressIndexJoinPinned races index-join readers against a
// writer that keeps re-keying, deleting and inserting inner rows: at
// whatever version a reader pins, probing the index gives exactly what
// building a hash table over a scan at that version gives.
func TestMVCCStressIndexJoinPinned(t *testing.T) {
	c, inner, inl, hash := indexJoinFixture(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 0; round < 120; round++ {
			if err := churnInner(c, inner, round); err != nil {
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
				s := c.Snapshot()
				rowsOf := func(op Operator) string {
					rows, err := RunAt(op, s.Version())
					if err != nil {
						t.Errorf("reader at version %d: %v", s.Version(), err)
					}
					img := make([]string, len(rows))
					for i, tu := range rows {
						img[i] = tu.String() + tu.Lineage.String()
					}
					sort.Strings(img)
					return strings.Join(img, ";")
				}
				if got, want := rowsOf(inl()), rowsOf(hash()); got != want {
					t.Errorf("version %d: index join %s, hash join %s", s.Version(), got, want)
				}
				s.Release()
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

// TestMVCCStressLeafReadsRaceTheWriter races scanning and index-probing
// leaves against one writer that inserts, re-keys, deletes and rolls
// back, appending records across chunk boundaries while the readers
// read: at whatever version a reader pins, each leaf returns exactly
// what EvalBool over that version's RowsAt returns, in record order.
func TestMVCCStressLeafReadsRaceTheWriter(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("L", NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: "v", Type: TypeFloat}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for i := 0; i < chunkLen-40; i++ {
		v := Float(float64(i % 10))
		if i%7 == 0 {
			v = Null()
		}
		x.MustInsert(tab, 0.5, nil, Int(int64(i%5)), v)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	k := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}
	v := &ColRef{Index: 1, Col: tab.Schema().Columns[1]}
	cmp := func(op BinaryOp, l Expr, c Value) Expr { return &Binary{Op: op, Left: l, Right: Const{Value: c}} }
	preds := []Expr{
		cmp(OpGe, v, Float(5)),
		cmp(OpEq, k, Int(3)),
		&Binary{Op: OpAnd, Left: cmp(OpEq, k, Int(1)), Right: cmp(OpLt, v, Int(4))},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 0; round < 90; round++ {
			x := c.Begin()
			x.MustInsert(tab, 0.5, nil, Int(int64(round%5)), Float(float64(round%10)))
			x.MustInsert(tab, 0.5, nil, Int(3), Null())
			_, err := x.Update(tab, cmp(OpEq, k, Int(int64(round%5))), []UpdateSpec{{Column: 0, Value: Const{Value: Int(int64((round + 2) % 5))}}})
			if err == nil {
				_, err = x.Delete(tab, cmp(OpEq, v, Float(float64(round%10))))
			}
			if err != nil {
				t.Errorf("writer: %v", err)
				x.Rollback()
				return
			}
			if round%3 == 2 {
				x.Rollback()
				continue
			}
			if _, err := x.Commit(); err != nil {
				t.Errorf("writer commit: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := c.Snapshot()
				held := tab.RowsAt(s)
				for _, e := range preds {
					var want []string
					for _, b := range held {
						tu := &Tuple{Values: b.Values()}
						if ok, err := EvalBool(e, tu); err != nil || !ok {
							continue
						}
						want = append(want, tu.String()+lineage.NewVar(b.Var()).String())
					}
					rows, err := RunAt(Filter(tab.Scan(), e), s.Version())
					got := make([]string, len(rows))
					for i, tu := range rows {
						got[i] = tu.String() + tu.Lineage.String()
					}
					if err != nil || strings.Join(got, ";") != strings.Join(want, ";") {
						t.Errorf("%s at version %d: leaf %d rows (%v), reference %d", e, s.Version(), len(got), err, len(want))
					}
				}
				s.Release()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if tab.view().n <= chunkLen {
		t.Fatal("the writer never crossed a chunk boundary")
	}
}

// TestMVCCSnapshotTripleUnderCommits pins the one-record publication of
// a commit point: readers snapshot in a loop against one writer that
// interleaves confidence-only commits, row commits, commits that change
// both, and CreateTable, and every snapshot's (Version, PlanEpoch,
// ConfEpoch) must equal the triple the writer derived for that version
// from what it committed — never a version paired with a neighbour's
// epochs.
func TestMVCCSnapshotTripleUnderCommits(t *testing.T) {
	c, tab, a, _ := newStressPair(t)
	type triple struct{ v, plan, conf int64 }
	cur := triple{c.Version(), c.PlanEpoch(), c.ConfEpoch()}
	want := map[int64]triple{cur.v: cur} // the writer's record, read after Wait

	const readers = 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop() // a failing writer must not leave readers spinning
	seen := make([][]triple, readers)
	var ready sync.WaitGroup // the writer starts once every reader is reading
	ready.Add(readers)
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := c.Snapshot()
				got := triple{s.Version(), s.PlanEpoch(), s.ConfEpoch()}
				s.Release()
				if n := len(seen[r]); n == 0 || seen[r][n-1] != got {
					if n == 0 {
						ready.Done()
					}
					seen[r] = append(seen[r], got)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	ready.Wait()
	for i := 0; i < 400; i++ {
		var rows, confs bool
		if i%4 == 3 {
			if _, err := c.CreateTable(fmt.Sprintf("D%d", i), NewSchema(Column{Name: "k", Type: TypeInt})); err != nil {
				t.Fatal(err)
			}
			cur.v++
			cur.plan++
			want[cur.v] = cur
			continue
		}
		x := c.Begin()
		switch i % 4 {
		case 0: // confidence only
			confs = true
			if err := x.SetConfidence(a.Var(), dyadic(i)); err != nil {
				t.Fatal(err)
			}
		case 1: // rows only
			rows = true
			x.MustInsert(tab, 0.5, nil, Int(int64(100+i)), Int(0))
		case 2: // both: a delete tombstones the row and zeroes its confidence
			rows, confs = true, true
			inserted := &Binary{Op: OpEq, Left: &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, Right: Const{Value: Int(int64(100 + i - 1))}}
			if n, err := x.Delete(tab, inserted); err != nil || n != 1 {
				t.Fatalf("delete: %d rows, %v", n, err)
			}
		}
		v, err := x.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if v != cur.v+1 {
			t.Fatalf("commit %d published version %d after %d", i, v, cur.v)
		}
		cur.v = v
		if rows {
			cur.plan++
		}
		if confs {
			cur.conf++
		}
		want[cur.v] = cur
	}
	stop()

	observed := 0
	for r, obs := range seen {
		observed += len(obs)
		for _, got := range obs {
			if w, ok := want[got.v]; !ok || got != w {
				t.Errorf("reader %d: snapshot (version %d, planEpoch %d, confEpoch %d), writer recorded %+v", r, got.v, got.plan, got.conf, w)
			}
		}
	}
	t.Logf("%d readers observed %d commit points of %d", readers, observed, len(want))
}
