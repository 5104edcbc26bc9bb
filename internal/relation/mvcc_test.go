package relation

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// newMVCCTable builds a two-column table for version-chain tests.
func newMVCCTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("T", NewSchema(
		Column{Name: "k", Type: TypeInt},
		Column{Name: "v", Type: TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	return c, tab
}

// inTxn runs fn in one write transaction: committed when fn succeeds,
// rolled back (and fn's error returned) when it does not.
func inTxn(c *Catalog, fn func(x *Txn) error) error {
	x := c.Begin()
	if err := fn(x); err != nil {
		x.Rollback()
		return err
	}
	_, err := x.Commit()
	return err
}

// rowImage is the comparable image of one visible row version.
type rowImage struct {
	v       lineage.Var
	values  string
	conf    float64
	maxConf float64
}

// dbImage captures everything a rollback or failed commit must leave
// untouched: the counters plus every table's visible rows in order.
type dbImage struct {
	version, planEpoch, confEpoch int64
	rows                          map[string][]rowImage
	lens                          map[string]int
}

func captureImage(c *Catalog, tables ...*Table) dbImage {
	snap := c.Snapshot()
	defer snap.Release()
	img := dbImage{
		version:   c.Version(),
		planEpoch: c.PlanEpoch(),
		confEpoch: c.ConfEpoch(),
		rows:      map[string][]rowImage{},
		lens:      map[string]int{},
	}
	for _, t := range tables {
		for _, b := range t.RowsAt(snap) {
			var sb strings.Builder
			for _, v := range b.Values() {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			img.rows[t.Name] = append(img.rows[t.Name], rowImage{
				v: b.Var(), values: sb.String(), conf: b.Confidence(), maxConf: b.MaxConf(),
			})
		}
		img.lens[t.Name] = t.Len()
	}
	return img
}

func assertImagesEqual(t *testing.T, want, got dbImage) {
	t.Helper()
	if got.version != want.version || got.planEpoch != want.planEpoch || got.confEpoch != want.confEpoch {
		t.Fatalf("counters changed: version %d→%d planEpoch %d→%d confEpoch %d→%d",
			want.version, got.version, want.planEpoch, got.planEpoch, want.confEpoch, got.confEpoch)
	}
	for name, rows := range want.rows {
		g := got.rows[name]
		if len(g) != len(rows) {
			t.Fatalf("table %s: %d rows, want %d", name, len(g), len(rows))
		}
		for i := range rows {
			if g[i] != rows[i] {
				t.Fatalf("table %s row %d: %+v, want %+v", name, i, g[i], rows[i])
			}
		}
		if got.lens[name] != want.lens[name] {
			t.Fatalf("table %s Len: %d, want %d", name, got.lens[name], want.lens[name])
		}
	}
}

func keyEq(t *testing.T, tab *Table, k int64) Expr {
	t.Helper()
	ref, err := NewColRef(tab.Schema(), "", "k")
	if err != nil {
		t.Fatal(err)
	}
	return &Binary{Op: OpEq, Left: ref, Right: Const{Value: Int(k)}}
}

func TestMVCCSnapshotSeesOnlyItsVersion(t *testing.T) {
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(0.4, nil, Int(1), Int(10))
	b := tab.MustInsert(0.6, nil, Int(2), Int(20))

	snap := c.Snapshot()
	defer snap.Release()
	v0 := c.Version()

	// Three commits after the snapshot: a confidence change, an insert,
	// and a delete.
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a.Var(), 0.9) }); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(0.5, nil, Int(3), Int(30))
	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, keyEq(t, tab, 2)); return err }); err != nil {
		t.Fatal(err)
	}

	if got := c.Version(); got != v0+3 {
		t.Fatalf("version = %d, want %d (one per commit)", got, v0+3)
	}
	if snap.Version() != v0 {
		t.Fatalf("snapshot drifted to version %d", snap.Version())
	}
	// The pinned view is unaffected by all three commits.
	if p := snap.ProbOf(a.Var()); p != 0.4 {
		t.Errorf("snapshot ProbOf(a) = %v, want 0.4", p)
	}
	if p := snap.ProbOf(b.Var()); p != 0.6 {
		t.Errorf("snapshot ProbOf(b) = %v, want 0.6", p)
	}
	if rows := tab.RowsAt(snap); len(rows) != 2 {
		t.Errorf("RowsAt(snapshot) = %d rows, want 2", len(rows))
	}
	// A fresh snapshot reflects them all.
	latest := c.Snapshot()
	defer latest.Release()
	if p := latest.ProbOf(a.Var()); p != 0.9 {
		t.Errorf("latest ProbOf(a) = %v, want 0.9", p)
	}
	if p := latest.ProbOf(b.Var()); p != 0 {
		t.Errorf("latest ProbOf(deleted b) = %v, want 0", p)
	}
	if rows := tab.RowsAt(latest); len(rows) != 2 { // a and the new row; b deleted
		t.Errorf("latest RowsAt = %d, want 2", len(rows))
	}
}

func TestMVCCDeletedRowKeepsResolvingAsTombstone(t *testing.T) {
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(0.7, nil, Int(1), Int(10))
	result := &Tuple{Lineage: lineage.NewVar(a.Var())}

	before := c.Snapshot()
	defer before.Release()

	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, nil); return err }); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	defer after.Release()
	got, ok := after.BaseTupleByVar(a.Var())
	if !ok {
		t.Fatal("deleted row must stay resolvable by variable")
	}
	if !got.Tombstone() || got.Confidence() != 0 {
		t.Fatalf("tombstone=%v conf=%v, want tombstone with confidence 0", got.Tombstone(), got.Confidence())
	}
	if p := after.Confidence(result); p != 0 {
		t.Errorf("derived confidence after delete = %v, want 0", p)
	}
	// A snapshot taken before the delete still sees the live row.
	if p := before.Confidence(result); p != 0.7 {
		t.Errorf("pre-delete snapshot confidence = %v, want 0.7", p)
	}
}

func TestMVCCTxnRollbackRestoresStateBitIdentical(t *testing.T) {
	c, tab := newMVCCTable(t)
	tab.MustInsert(0.2, nil, Int(1), Int(10))
	rowB := tab.MustInsert(0.5, nil, Int(2), Int(20))
	tab.MustInsert(0.8, nil, Int(3), Int(30))
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}

	want := captureImage(c, tab)
	snap := c.Snapshot()
	defer snap.Release()
	heldRows := tab.RowsAt(snap)

	x := c.Begin()
	if _, err := x.Insert(tab, []Value{Int(4), Int(40)}, 0.9, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.SetConfidence(rowB.Var(), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(tab, keyEq(t, tab, 1), []UpdateSpec{{Column: 1, Value: Const{Value: Int(99)}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Delete(tab, keyEq(t, tab, 3)); err != nil {
		t.Fatal(err)
	}
	x.Rollback()
	x.Rollback() // idempotent

	assertImagesEqual(t, want, captureImage(c, tab))
	// The rows captured before the transaction point at the same versions.
	fresh := c.Snapshot()
	defer fresh.Release()
	after := tab.RowsAt(fresh)
	if len(after) != len(heldRows) {
		t.Fatalf("rows after rollback = %d, want %d", len(after), len(heldRows))
	}
	for i := range after {
		if after[i] != heldRows[i] {
			t.Fatalf("row %d is a different version after rollback", i)
		}
	}
	// A new transaction can run after the rollback released the writer.
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rowB.Var(), 0.6) }); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCCommitFaultIsAllOrNothing(t *testing.T) {
	c, tab := newMVCCTable(t)
	rowA := tab.MustInsert(0.3, nil, Int(1), Int(10))
	want := captureImage(c, tab)

	defer fault.Reset()
	fault.Register("relation.txn.commit", func() { panic("injected commit fault") })
	fault.Enable()

	x := c.Begin()
	if err := x.SetConfidence(rowA.Var(), 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert(tab, []Value{Int(2), Int(20)}, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	version, err := x.Commit()
	if err == nil || !strings.Contains(err.Error(), "commit fault") {
		t.Fatalf("Commit error = %v, want injected commit fault", err)
	}
	if version != 0 {
		t.Fatalf("failed commit returned version %d, want 0", version)
	}
	assertImagesEqual(t, want, captureImage(c, tab))

	// With the fault cleared the same mutation commits cleanly.
	fault.Reset()
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(rowA.Var(), 0.7) }); err != nil {
		t.Fatal(err)
	}
	if got := c.Version(); got != want.version+1 {
		t.Fatalf("version = %d, want %d", got, want.version+1)
	}
	if p := c.AssignmentAt(c.Version()).ProbOf(rowA.Var()); p != 0.7 {
		t.Fatalf("confidence = %v, want 0.7", p)
	}
}

func TestMVCCSnapshotAtTimeTravel(t *testing.T) {
	c, tab := newMVCCTable(t)
	v0 := c.Version() // table exists, no rows
	a := tab.MustInsert(0.2, nil, Int(1), Int(10))
	v1 := c.Version()
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a.Var(), 0.5) }); err != nil {
		t.Fatal(err)
	}
	v2 := c.Version()
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a.Var(), 0.8) }); err != nil {
		t.Fatal(err)
	}
	v3 := c.Version()

	for _, tc := range []struct {
		v    int64
		rows int
		p    float64
	}{
		{v0, 0, 0}, {v1, 1, 0.2}, {v2, 1, 0.5}, {v3, 1, 0.8},
	} {
		snap, err := c.SnapshotAt(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Historical() || snap.PlanEpoch() != 0 || snap.ConfEpoch() != 0 {
			t.Fatalf("v%d: historical=%v epochs=(%d,%d)", tc.v, snap.Historical(), snap.PlanEpoch(), snap.ConfEpoch())
		}
		if rows := tab.RowsAt(snap); len(rows) != tc.rows {
			t.Errorf("version %d: %d rows, want %d", tc.v, len(rows), tc.rows)
		}
		if p := snap.ProbOf(a.Var()); p != tc.p {
			t.Errorf("version %d: ProbOf = %v, want %v", tc.v, p, tc.p)
		}
		snap.Release()
	}
	if _, err := c.SnapshotAt(c.Version() + 1); err == nil {
		t.Error("future version must be rejected")
	}
	if _, err := c.SnapshotAt(-1); err == nil {
		t.Error("negative version must be rejected")
	}
}

// TestMVCCRowsAliasingRegression guards the historical bug where
// reading a table's rows returned an aliased view that later mutations edited in
// place: a caller holding the slice across an update/delete/insert saw
// its rows change under it.
func TestMVCCRowsAliasingRegression(t *testing.T) {
	c, tab := newMVCCTable(t)
	tab.MustInsert(0.1, nil, Int(1), Int(10))
	tab.MustInsert(0.2, nil, Int(2), Int(20))
	tab.MustInsert(0.3, nil, Int(3), Int(30))
	before := c.Snapshot()
	defer before.Release()
	held := tab.RowsAt(before)
	type image struct {
		conf float64
		val  int64
	}
	want := make([]image, len(held))
	for i, b := range held {
		v, _ := b.Values()[1].AsInt()
		want[i] = image{conf: b.Confidence(), val: v}
	}

	// Mutate through every path: value update, confidence update, delete,
	// insert.
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, nil, []UpdateSpec{
			{Column: 1, Value: Const{Value: Int(99)}},
			{Column: -1, Value: Const{Value: Float(0.9)}},
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := inTxn(c, func(x *Txn) error { _, err := x.Delete(tab, keyEq(t, tab, 2)); return err }); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(0.4, nil, Int(4), Int(40))

	if len(held) != 3 {
		t.Fatalf("held slice length changed to %d", len(held))
	}
	for i, b := range held {
		v, _ := b.Values()[1].AsInt()
		if b.Confidence() != want[i].conf || v != want[i].val {
			t.Fatalf("held row %d mutated: conf=%v val=%d, want conf=%v val=%d",
				i, b.Confidence(), v, want[i].conf, want[i].val)
		}
	}
	// The fresh view reflects the mutations.
	after := c.Snapshot()
	defer after.Release()
	fresh := tab.RowsAt(after)
	if len(fresh) != 3 { // 3 original − 1 deleted + 1 inserted
		t.Fatalf("fresh RowsAt = %d, want 3", len(fresh))
	}
	for _, b := range fresh {
		k, _ := b.Values()[0].AsInt()
		if k == 4 {
			continue
		}
		v, _ := b.Values()[1].AsInt()
		if v != 99 || b.Confidence() != 0.9 {
			t.Fatalf("fresh row k=%d: val=%d conf=%v, want 99/0.9", k, v, b.Confidence())
		}
	}
}

func TestMVCCTxnReadsItsOwnWrites(t *testing.T) {
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(0.4, nil, Int(1), Int(10))

	x := c.Begin()
	if err := x.SetConfidence(a.Var(), 0.7); err != nil {
		t.Fatal(err)
	}
	if p, ok := x.ConfidenceOf(a.Var()); !ok || p != 0.7 {
		t.Fatalf("txn ConfidenceOf = %v/%v, want 0.7 (read your writes)", p, ok)
	}
	// Committed readers still see the old value while the txn is open.
	if p := c.AssignmentAt(c.Version()).ProbOf(a.Var()); p != 0.4 {
		t.Fatalf("committed ProbOf = %v, want 0.4 while txn open", p)
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if p := c.AssignmentAt(c.Version()).ProbOf(a.Var()); p != 0.7 {
		t.Fatalf("committed ProbOf = %v after commit, want 0.7", p)
	}
}

func TestMVCCEmptyCommitPublishesNothing(t *testing.T) {
	c, tab := newMVCCTable(t)
	tab.MustInsert(0.4, nil, Int(1), Int(10))
	v, pe, ce := c.Version(), c.PlanEpoch(), c.ConfEpoch()

	x := c.Begin()
	version, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if version != v {
		t.Fatalf("empty commit returned version %d, want read version %d", version, v)
	}
	if c.Version() != v || c.PlanEpoch() != pe || c.ConfEpoch() != ce {
		t.Fatal("empty commit must not advance any counter")
	}

	// A finished transaction rejects further use.
	if _, err := x.Commit(); err == nil {
		t.Error("double commit must fail")
	}
	if err := x.SetConfidence(1, 0.5); err == nil {
		t.Error("mutation after commit must fail")
	}
}

func TestMVCCSnapshotReleaseIdempotent(t *testing.T) {
	c, _ := newMVCCTable(t)
	base := c.OpenSnapshots()
	s := c.Snapshot()
	if got := c.OpenSnapshots(); got != base+1 {
		t.Fatalf("open snapshots = %d, want %d", got, base+1)
	}
	s.Release()
	s.Release()
	if got := c.OpenSnapshots(); got != base {
		t.Fatalf("open snapshots after double release = %d, want %d", got, base)
	}
}

func TestMVCCRunAtPinsWholePlan(t *testing.T) {
	c, tab := newMVCCTable(t)
	tab.MustInsert(0.5, nil, Int(1), Int(10))
	tab.MustInsert(0.5, nil, Int(2), Int(20))
	v1 := c.Version()
	tab.MustInsert(0.5, nil, Int(3), Int(30))

	ref, err := NewColRef(tab.Schema(), "", "k")
	if err != nil {
		t.Fatal(err)
	}
	op := &Select{Input: tab.Scan(), Pred: &Binary{Op: OpGt, Left: ref, Right: Const{Value: Int(0)}}}
	rows, err := RunAt(op, v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("pinned run = %d rows, want 2", len(rows))
	}
	// Version 0 is the empty database, not a spelling of "latest".
	rows, err = RunAt(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("run at version 0 = %d rows, want none", len(rows))
	}
}

// TestMVCCAttachConfidencePinned checks that a pinned plan resolves the
// _confidence column at the pinned version even after later commits
// change the base confidences.
func TestMVCCAttachConfidencePinned(t *testing.T) {
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(0.25, nil, Int(1), Int(10))
	v1 := c.Version()
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a.Var(), 0.75) }); err != nil {
		t.Fatal(err)
	}

	op := &AttachConfidence{Input: tab.Scan(), Catalog: c}
	rows, err := RunAt(op, v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	got, _ := rows[0].Values[len(rows[0].Values)-1].AsFloat()
	if got != 0.25 {
		t.Fatalf("pinned _confidence = %v, want 0.25", got)
	}
}

// TestMVCCVersionCountersConcurrentReads is the -race regression for the
// version counters: unsynchronized readers poll the counters and take
// snapshots while a writer commits. Before the counters became atomics
// published under the version lock this was a data race; now every
// reader must additionally observe monotonically non-decreasing
// versions and internally consistent snapshots.
func TestMVCCVersionCountersConcurrentReads(t *testing.T) {
	c, tab := newMVCCTable(t)
	a := tab.MustInsert(0.5, nil, Int(1), Int(10))

	const commits = 200
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			p := float64(i%11) / 10
			if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(a.Var(), p) }); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastV, lastC int64
			for {
				v := c.Version()
				ce := c.ConfEpoch()
				_ = c.PlanEpoch()
				if v < lastV || ce < lastC {
					t.Errorf("counters went backwards: version %d→%d confEpoch %d→%d", lastV, v, lastC, ce)
					return
				}
				lastV, lastC = v, ce
				s := c.Snapshot()
				if s.Version() < lastV {
					t.Errorf("snapshot version %d behind observed %d", s.Version(), lastV)
					s.Release()
					return
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

// TestMVCCIndexJoinMatchesHashJoinAtPinnedVersion: an index join pinned
// at version v returns HashJoin's multiset and lineage at v — duplicate
// and NULL outer keys included — however the inner rows were re-keyed,
// deleted and inserted since: the chain-aware buckets still reach v's
// rows, and rows keyed otherwise at v are screened out per probe.
func TestMVCCIndexJoinMatchesHashJoinAtPinnedVersion(t *testing.T) {
	c, inner, inl, hash := indexJoinFixture(t)
	versions := []int64{c.Version()}
	for round := 0; round < 6; round++ {
		if err := churnInner(c, inner, round); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, c.Version())
	}
	images := map[string]bool{}
	for _, v := range versions {
		got, want := joinImage(t, inl(), v), joinImage(t, hash(), v)
		if len(want) == 0 {
			t.Fatalf("version %d: empty reference join", v)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("version %d: index join\n%s\nhash join\n%s", v, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		images[strings.Join(want, "\n")] = true
	}
	if len(images) < len(versions)/2 {
		t.Fatalf("only %d distinct join results over %d versions: the churn does not exercise the join", len(images), len(versions))
	}
}

// TestEveryOperatorOpensAtTheGivenVersion: one tree object per operator
// kind, run at v1, at v2 and at v1 again (what a plan-cache hit does),
// must each time produce the rows, lineage and _confidence of a
// reference built from scratch over that version's rows held in Values
// leaves — which ignore the version they are opened at, so a composite
// that forwards the wrong one to a child cannot also fool the
// reference. Between v1 and v2 both tables gain a row and lose their
// first, and a surviving row's confidence is raised.
func TestEveryOperatorOpensAtTheGivenVersion(t *testing.T) {
	c := NewCatalog()
	mk := func(name, second string) *Table {
		tab, err := c.CreateTable(name, NewSchema(Column{Name: "k", Type: TypeInt}, Column{Name: second, Type: TypeInt}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b := mk("A", "v"), mk("B", "w")
	x := c.Begin()
	for _, r := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 21}} {
		x.MustInsert(a, 0.5, nil, Int(r[0]), Int(r[1]))
	}
	for _, r := range [][2]int64{{1, 100}, {2, 200}, {4, 400}} {
		x.MustInsert(b, 0.5, nil, Int(r[0]), Int(r[1]))
	}
	v1, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	col := func(tab *Table, i int) *ColRef { return &ColRef{Index: i, Col: tab.Schema().Columns[i]} }
	cmp := func(op BinaryOp, l Expr, k int64) Expr { return &Binary{Op: op, Left: l, Right: Const{Value: Int(k)}} }
	x = c.Begin()
	x.MustInsert(a, 0.5, nil, Int(2), Int(22))
	x.MustInsert(b, 0.5, nil, Int(3), Int(300))
	for _, tab := range []*Table{a, b} {
		if n, err := x.Delete(tab, cmp(OpEq, col(tab, 0), 1)); err != nil || n != 1 {
			t.Fatalf("delete from %s: %d, %v", tab.Name, n, err)
		}
	}
	snap1, err := c.SnapshotAt(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap1.Release()
	if err := x.SetConfidence(a.RowsAt(snap1)[1].Var(), 0.9); err != nil {
		t.Fatal(err)
	}
	v2, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}

	scan := func(tab *Table) Operator { return tab.Scan() }
	// heldAt is the leaf of a reference tree: tab's rows at v, fixed.
	heldAt := func(v int64) func(*Table) Operator {
		return func(tab *Table) Operator {
			snap, err := c.SnapshotAt(v)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			held := &Values{RowSchema: tab.Schema()}
			for _, row := range tab.RowsAt(snap) {
				held.Rows = append(held.Rows, &Tuple{Values: row.Values(), Lineage: lineage.NewVar(row.Var())})
			}
			return held
		}
	}
	join := func(leaf func(*Table) Operator) Operator {
		return &HashJoin{Left: leaf(a), Right: leaf(b), LeftKeys: []int{0}, RightKeys: []int{0}}
	}
	probed := cmp(OpEq, col(a, 0), 2)
	// distinctOn is DISTINCT over the join's column c; groupJoin runs it
	// over scans as the one group-join the planner emits for it.
	distinctOn := func(c int) func(leaf func(*Table) Operator) Operator {
		return func(leaf func(*Table) Operator) Operator {
			j := join(leaf)
			return &Project{Input: j, Exprs: []Expr{&ColRef{Index: c, Col: j.Schema().Columns[c]}}, Distinct: true}
		}
	}
	groupJoin := func(c int) func() Operator {
		return func() Operator {
			gj, ok := GroupJoinOf(distinctOn(c)(scan).(*Project)).(*GroupJoin)
			if !ok {
				t.Fatalf("fixture: DISTINCT over column %d of the join is not a group-join", c)
			}
			return gj
		}
	}
	cases := []struct {
		name string
		// shape builds the tree over the given leaves; live, when set,
		// is the tree under test where it is not shape over scans.
		shape func(leaf func(*Table) Operator) Operator
		live  func() Operator
	}{
		{name: "Select", shape: func(leaf func(*Table) Operator) Operator {
			return &Select{Input: leaf(a), Pred: cmp(OpGe, col(a, 0), 2)}
		}},
		{name: "Project", shape: func(leaf func(*Table) Operator) Operator {
			return &Project{Input: leaf(a), Exprs: []Expr{col(a, 0)}}
		}},
		{name: "Project DISTINCT", shape: func(leaf func(*Table) Operator) Operator {
			return &Project{Input: leaf(a), Exprs: []Expr{col(a, 0)}, Distinct: true}
		}},
		{name: "Limit", shape: func(leaf func(*Table) Operator) Operator { return &Limit{Input: leaf(a), N: 2} }},
		{name: "Rename", shape: func(leaf func(*Table) Operator) Operator { return &Rename{Input: leaf(a), Alias: "x"} }},
		{name: "ColumnMap", shape: func(leaf func(*Table) Operator) Operator {
			return &ColumnMap{Input: leaf(a), Indices: []int{1, 0}}
		}},
		{name: "Sort", shape: func(leaf func(*Table) Operator) Operator {
			return &Sort{Input: leaf(a), Keys: []SortKey{{Expr: col(a, 1), Desc: true}}}
		}},
		{name: "Aggregate", shape: func(leaf func(*Table) Operator) Operator {
			return &Aggregate{Input: leaf(a), GroupBy: []Expr{col(a, 0)}, Aggs: []AggSpec{{Kind: AggCount}}}
		}},
		{name: "HashJoin", shape: join},
		{name: "NestedLoopJoin", shape: func(leaf func(*Table) Operator) Operator {
			return &NestedLoopJoin{Left: leaf(a), Right: leaf(b), Pred: &Binary{Op: OpEq, Left: col(a, 0), Right: &ColRef{Index: 2, Col: b.Schema().Columns[0]}}}
		}},
		{name: "IndexJoin", shape: join, live: func() Operator {
			return &IndexJoin{Outer: a.Scan(), Inner: b.Scan(), OuterKey: 0, InnerKey: 0}
		}},
		{name: "GroupJoin keeping the probe side", shape: distinctOn(1), live: groupJoin(1)},
		{name: "GroupJoin keeping the build side", shape: distinctOn(3), live: groupJoin(3)},
		{name: "Union", shape: func(leaf func(*Table) Operator) Operator { return &Union{Left: leaf(a), Right: leaf(b)} }},
		{name: "Intersect", shape: func(leaf func(*Table) Operator) Operator {
			return &Intersect{Left: &ColumnMap{Input: leaf(a), Indices: []int{0}}, Right: &ColumnMap{Input: leaf(b), Indices: []int{0}}}
		}},
		{name: "Except", shape: func(leaf func(*Table) Operator) Operator {
			return &Except{Left: &ColumnMap{Input: leaf(a), Indices: []int{0}}, Right: &ColumnMap{Input: leaf(b), Indices: []int{0}}}
		}},
		{name: "filtered and pruned leaf", shape: func(leaf func(*Table) Operator) Operator {
			return &ColumnMap{Input: &Select{Input: leaf(a), Pred: cmp(OpGe, col(a, 1), 20)}, Indices: []int{1}}
		}, live: func() Operator { return Prune(Filter(a.Scan(), cmp(OpGe, col(a, 1), 20)), []int{1}) }},
		{name: "indexed leaf", shape: func(leaf func(*Table) Operator) Operator {
			return &Select{Input: leaf(a), Pred: probed}
		}, live: func() Operator { return Filter(a.Scan(), probed) }},
	}
	if !ProbesIndex(cases[len(cases)-1].live()) {
		t.Fatal("fixture: the indexed-leaf case does not probe an index")
	}
	for _, tc := range cases {
		live := tc.live
		if live == nil {
			live = func() Operator { return tc.shape(scan) }
		}
		op := live()
		images := map[int64]string{}
		for _, v := range []int64{v1, v2, v1} {
			got := strings.Join(joinImage(t, op, v), "\n")
			// The reference runs at a version at which both tables are
			// empty: only its held rows can reach its output.
			if want := strings.Join(joinImage(t, tc.shape(heldAt(v)), 0), "\n"); got != want {
				t.Errorf("%s at version %d:\n%s\nwant\n%s", tc.name, v, got, want)
			}
			images[v] = got
		}
		if images[v1] == images[v2] {
			t.Errorf("%s: same result at both versions; the case cannot tell them apart", tc.name)
		}
		// A group-join prices its rows with the confidences of the
		// version it is opened at.
		if _, ok := op.(*GroupJoin); ok {
			for _, v := range []int64{v1, v2, v1} {
				snap, err := c.SnapshotAt(v)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := RunAt(op, v)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					if p, ok := r.Priced(v); !ok || p != lineage.Prob(r.Lineage, snap) {
						t.Errorf("%s at version %d: row %v %s priced %v (%v), want %v", tc.name, v, r, r.Lineage, p, ok, lineage.Prob(r.Lineage, snap))
					}
					if _, ok := r.Priced(v + 1); ok {
						t.Errorf("%s: a row priced at version %d reads as priced at %d", tc.name, v, v+1)
					}
				}
				snap.Release()
			}
		}
	}

	// AttachConfidence has no Values-leaf reference (the catalog is where
	// its column comes from): check it against each version's snapshot.
	attach := &AttachConfidence{Input: a.Scan(), Catalog: c}
	raised := 0
	for _, v := range []int64{v1, v2, v1} {
		snap, err := c.SnapshotAt(v)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := RunAt(attach, v)
		if err != nil {
			t.Fatal(err)
		}
		held := a.RowsAt(snap)
		if len(rows) != len(held) {
			t.Fatalf("AttachConfidence at version %d: %d rows, want %d", v, len(rows), len(held))
		}
		for i, r := range rows {
			if got, _ := r.Values[2].AsFloat(); got != held[i].Confidence() || r.Lineage.String() != lineage.NewVar(held[i].Var()).String() {
				t.Errorf("AttachConfidence at version %d row %d: %v %s, want confidence %v of t%d", v, i, r, r.Lineage, held[i].Confidence(), held[i].Var())
			}
			if held[i].Confidence() == 0.9 {
				raised++
			}
		}
		snap.Release()
	}
	if raised != 1 {
		t.Errorf("the raised confidence showed in %d of the three runs, want only the one at v2", raised)
	}
	leafKernelsAtEveryVersion(t)
}

// leafKernelsAtEveryVersion: over a table whose rows span chunks and
// whose history holds value-changing UPDATEs, DELETEs, a confidence
// change and a rolled-back transaction, the leaf — scanning, and
// probing an index — returns at each version what EvalBool over that
// version's RowsAt returns, rows, order, lineage and first error alike,
// for every kernel shape: each comparison on INTEGER, REAL and TEXT
// with the constant on either side, INTEGER cells against REAL
// constants, NULL cells, ANDs of kernels, and (NULL AND false) in front
// of an erroring conjunct.
func leafKernelsAtEveryVersion(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("K", NewSchema(
		Column{Name: "i", Type: TypeInt}, Column{Name: "f", Type: TypeFloat}, Column{Name: "s", Type: TypeString}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("i"); err != nil {
		t.Fatal(err)
	}
	col := func(i int) Expr { return &ColRef{Index: i, Col: tab.Schema().Columns[i]} }
	bin := func(op BinaryOp, l, r Expr) Expr { return &Binary{Op: op, Left: l, Right: r} }
	k := func(v Value) Expr { return Const{Value: v} }
	cells := [][]Value{
		{Null(), Int(-1), Int(0), Int(2), Int(3), Int(1<<53 + 1)},
		{Null(), Float(-0.5), Float(2), Float(2.5), Float(math.NaN())},
		{Null(), String_(""), String_("a"), String_("b")},
	}
	rng := rand.New(rand.NewSource(5))
	row := func() []Value {
		return []Value{cells[0][rng.Intn(6)], cells[1][rng.Intn(5)], cells[2][rng.Intn(4)]}
	}
	must := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	x := c.Begin()
	var vars []lineage.Var
	for n := 0; n < chunkLen+300; n++ {
		vars = append(vars, x.MustInsert(tab, 0.5, nil, row()...).Var())
	}
	v1, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	x = c.Begin()
	must(x.Update(tab, bin(OpGt, col(1), k(Float(2))), []UpdateSpec{{Column: 0, Value: bin(OpAdd, col(0), k(Int(1)))}}))
	must(x.Update(tab, bin(OpEq, col(0), k(Int(0))), []UpdateSpec{{Column: 2, Value: k(String_("b"))}, {Column: -1, Value: k(Float(0.25))}}))
	must(x.Delete(tab, bin(OpEq, col(2), k(String_("a")))))
	must(0, x.SetConfidence(vars[3], 0.75))
	v2, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}
	x = c.Begin()
	x.MustInsert(tab, 0.5, nil, Int(2), Float(2), String_("b"))
	must(x.Update(tab, nil, []UpdateSpec{{Column: 1, Value: k(Float(2))}}))
	x.Rollback()
	x = c.Begin()
	x.MustInsert(tab, 0.5, nil, Int(2), Null(), String_("b"))
	must(x.Update(tab, bin(OpLt, col(0), k(Int(0))), []UpdateSpec{{Column: 0, Value: k(Int(2))}}))
	v3, err := x.Commit()
	if err != nil {
		t.Fatal(err)
	}

	var preds []Expr
	for ci, ks := range [][]Value{{Int(2), Float(2), Float(2.5), Int(-1)}, {Int(2), Float(2), Float(-0.5)}, {String_("b"), String_("")}} {
		for _, kv := range ks {
			for op := OpEq; op <= OpGe; op++ {
				preds = append(preds, bin(op, col(ci), k(kv)), bin(op, k(kv), col(ci)))
			}
		}
	}
	preds = append(preds,
		bin(OpAnd, bin(OpGe, col(0), k(Int(2))), bin(OpLt, col(1), k(Float(2.5)))),
		bin(OpAnd, bin(OpEq, col(0), k(Int(2))), bin(OpNe, col(2), k(String_("b")))), // probes the index
		bin(OpAnd, bin(OpEq, k(Int(3)), col(0)), bin(OpGt, k(Float(2)), col(1))),     // probes the index
		bin(OpAnd, bin(OpAnd, k(Null()), bin(OpGt, col(0), k(Int(100)))), &Like{Child: col(0), Pattern: "a%"}),
		bin(OpAnd, bin(OpGt, col(0), k(Int(100))), bin(OpAnd, k(Null()), &Like{Child: col(0), Pattern: "a%"})),
	)
	render := func(ts []*Tuple, err error) string {
		var b strings.Builder
		for _, tu := range ts {
			b.WriteString(tu.String() + tu.Lineage.String() + ";")
		}
		if err != nil {
			b.WriteString(err.Error())
		}
		return b.String()
	}
	probed := 0
	for _, v := range []int64{v1, v2, v3, v1} {
		snap, err := c.SnapshotAt(v)
		if err != nil {
			t.Fatal(err)
		}
		var held []*Tuple
		for _, b := range tab.RowsAt(snap) {
			held = append(held, &Tuple{Values: b.Values(), Lineage: lineage.NewVar(b.Var())})
		}
		snap.Release()
		for _, e := range preds {
			var want []*Tuple
			var werr error
			for _, tu := range held {
				ok, err := EvalBool(e, tu)
				if err != nil {
					want, werr = nil, err
					break
				}
				if ok {
					want = append(want, tu)
				}
			}
			op := Filter(tab.Scan(), e)
			if ProbesIndex(op) {
				probed++
			}
			if got, want := render(RunAt(op, v)), render(want, werr); got != want {
				t.Fatalf("%s at version %d:\n%.300s\nwant\n%.300s", Explain(op), v, got, want)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no predicate probed the index")
	}
}
