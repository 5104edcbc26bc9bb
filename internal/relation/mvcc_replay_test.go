package relation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// TestMVCCStorageMatchesReplay holds the record store's stamps and the
// variable directory to an oracle that shares none of their code: a
// map from variable to row, replayed from the log of committed
// operations. A random schedule over three tables, the first two grown
// past a chunk boundary, inserts, UPDATEs values and confidences, DELETEs,
// sets confidences, rolls back and fails commits; the third table only
// gains rows, so its chunks hold rolled-back records and no dead one.
// Then, at every
// committed version, a scan (bare and through an index bucket), RowsAt,
// and ProbOf and BaseTupleByVar of every variable ever allocated must
// read what the replay of that version's commit prefix holds; variables
// rolled back or never allocated resolve to nothing. Readers pinned to
// current and past snapshots observe the same images while the writer
// commits, and are checked against the replay afterwards.
func TestMVCCStorageMatchesReplay(t *testing.T) {
	c := NewCatalog()
	var tabs []*Table
	for _, name := range []string{"A", "B", "C"} {
		tab, err := c.CreateTable(name, NewSchema(
			Column{Name: "k", Type: TypeInt}, Column{Name: "v", Type: TypeInt}, Column{Name: "s", Type: TypeString}))
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := tabs[0].CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	start := c.Version()

	defer fault.Reset()
	var failCommit atomic.Bool
	fault.Register("relation.txn.commit", func() {
		if failCommit.Swap(false) {
			panic("induced commit fault")
		}
	})
	fault.Enable()

	// Every image covers the variables below varLimit, more than the
	// schedule allocates (checked below).
	const varLimit = 4096
	type observation struct {
		version int64
		image   uint64 // the observed image's FNV-1a hash
	}
	var (
		obsMu    sync.Mutex
		observed []observation
		wg       sync.WaitGroup
	)
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for i := range 2 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for range 150 {
				select {
				case <-done:
					return
				default:
				}
				s := c.Snapshot()
				if cur := s.Version(); r.Intn(2) == 0 && cur > start {
					s.Release()
					var err error
					if s, err = c.SnapshotAt(start + r.Int63n(cur-start+1)); err != nil {
						t.Error(err)
						return
					}
				}
				img, err := observe(tabs, s, varLimit)
				s.Release()
				if err != nil {
					t.Error(err)
					return
				}
				obsMu.Lock()
				observed = append(observed, observation{s.Version(), img.hash()})
				obsMu.Unlock()
			}
		}(int64(i + 1))
	}

	// The writer: each transaction is logged as the operations it ran,
	// with the variables inserts were given; only committed ones replay.
	r := rand.New(rand.NewSource(7))
	var (
		commits   []replayCommit
		committed []lineage.Var // variables a committed insert allocated
		rolled    int
	)
	for txn := 0; txn < 162; txn++ {
		x := c.Begin()
		var ops []replayOp
		var mine []lineage.Var
		for n := 1 + r.Intn(3); n > 0; n-- {
			ti, p := r.Intn(2), r.Intn(100)
			if p < 40 {
				ti = r.Intn(3)
			}
			tab := tabs[ti]
			if txn < 2 {
				// Each table opens with a committed first chunk that no
				// rollback touches: until a row of it is deleted or
				// updated, a reader takes it whole without testing stamps.
				ti, tab, p, n = txn, tabs[txn], 0, 1
			}
			switch {
			case p < 40: // insert, now and then a batch that crosses a chunk boundary
				rows := 1 + r.Intn(4)
				if txn < 2 {
					rows = chunkLen + 1
				} else if r.Intn(40) == 0 {
					rows = 100 + r.Intn(100)
				}
				for range rows {
					o := replayOp{kind: opInsert, table: ti, k: int64(r.Intn(40)), val: int64(r.Intn(1000)),
						conf: dyadic(r.Intn(17)), cost: r.Intn(2) == 0}
					o.s = fmt.Sprintf("s%d", r.Intn(100000))
					var fn cost.Function
					if o.cost {
						fn = cost.Linear{Rate: 2}
					}
					b, err := x.Insert(tab, []Value{Int(o.k), Int(o.val), String_(o.s)}, o.conf, fn)
					if err != nil {
						t.Fatal(err)
					}
					o.v = b.Var()
					mine = append(mine, o.v)
					ops = append(ops, o)
				}
			case p < 55: // value-changing UPDATE, sometimes with a confidence too
				o := replayOp{kind: opUpdate, table: ti, key: int64(r.Intn(40)), bump: true, conf: -1}
				specs := []UpdateSpec{{Column: 1, Value: &Binary{Op: OpAdd, Left: colRef(t, tab, "v"), Right: Const{Value: Int(1)}}}}
				if r.Intn(3) == 0 {
					o.conf = dyadic(r.Intn(17))
					specs = append(specs, UpdateSpec{Column: -1, Value: Const{Value: Float(o.conf)}})
				}
				if _, err := x.Update(tab, keyEq(t, tab, o.key), specs); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, o)
			case p < 65: // confidence-only UPDATE
				o := replayOp{kind: opUpdate, table: ti, key: int64(r.Intn(40)), conf: dyadic(r.Intn(17))}
				if _, err := x.Update(tab, keyEq(t, tab, o.key), []UpdateSpec{{Column: -1, Value: Const{Value: Float(o.conf)}}}); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, o)
			case p < 75:
				o := replayOp{kind: opDelete, table: ti, key: int64(r.Intn(40))}
				if _, err := x.Delete(tab, keyEq(t, tab, o.key)); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, o)
			default: // SetConfidence on a row this transaction can see, deleted or not
				known := append(slices.Clip(committed), mine...)
				if len(known) == 0 {
					continue
				}
				o := replayOp{kind: opSetConf, v: known[r.Intn(len(known))], conf: dyadic(r.Intn(17))}
				if err := x.SetConfidence(o.v, o.conf); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, o)
			}
		}
		switch p := r.Intn(100); {
		case txn < 2:
			if _, err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			commits = append(commits, replayCommit{version: c.Version(), ops: ops})
			committed = append(committed, mine...)
		case p < 15:
			x.Rollback()
			rolled++
		case p < 27:
			failCommit.Store(true)
			if _, err := x.Commit(); err == nil {
				t.Fatal("a commit with an injected fault succeeded")
			}
			rolled++
		default:
			before := c.Version()
			seq, err := x.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if seq > before {
				commits = append(commits, replayCommit{version: seq, ops: ops})
			}
			committed = append(committed, mine...)
		}
	}
	stop()
	if rolled == 0 || len(commits) < 80 {
		t.Fatalf("schedule ran %d commits and %d rollbacks: too few to mean anything", len(commits), rolled)
	}
	for _, tab := range tabs[:2] {
		if n := tab.view().n; n <= chunkLen {
			t.Fatalf("table %s holds %d records: the schedule never crossed a chunk boundary", tab.Name, n)
		}
	}

	// Replay the commit log; at each version compare the catalog read
	// there, and every reader observation made there, with the replay.
	if limit := c.next; limit >= varLimit {
		t.Fatalf("the schedule allocated %d variables, past the images' %d", limit-1, varLimit)
	}
	byVersion := map[int64][]observation{}
	for _, o := range observed {
		byVersion[o.version] = append(byVersion[o.version], o)
	}
	state := map[lineage.Var]replayRow{}
	checked := 0
	check := func(v int64) {
		s, err := c.SnapshotAt(v)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		got, err := observe(tabs, s, varLimit)
		if err != nil {
			t.Fatal(err)
		}
		want := expectImage(state, v, varLimit)
		if d := got.diff(want); d != "" {
			t.Fatalf("version %d reads differently from the replay of its commit prefix: %s", v, d)
		}
		for _, o := range byVersion[v] {
			if o.image != want.hash() {
				t.Fatalf("a reader pinned to version %d saw a state the replay does not hold", v)
			}
			checked++
		}
	}
	check(start)
	for _, cm := range commits {
		for _, o := range cm.ops {
			o.apply(state, cm.version)
		}
		check(cm.version)
	}
	if checked == 0 {
		t.Fatal("no reader observation was checked")
	}
	t.Logf("%d commits, %d rollbacks, %d variables, %d reader observations checked", len(commits), rolled, c.next-1, checked)
}

const (
	opInsert = iota
	opUpdate
	opDelete
	opSetConf
)

// replayOp is one logged operation. An UPDATE adds 1 to v when bump is
// set and sets the confidence when conf ≥ 0, on the live rows of table
// with k = key; a DELETE withdraws those rows.
type replayOp struct {
	kind, table int
	v           lineage.Var
	k, val      int64
	s           string
	conf        float64
	cost, bump  bool
	key         int64
}

type replayCommit struct {
	version int64
	ops     []replayOp
}

// replayRow is the oracle's image of a variable's row version.
type replayRow struct {
	table      int
	k, val     int64
	s          string
	conf       float64
	cost, tomb bool
	createdAt  int64
}

// apply replays the operation as committed at version seq.
func (o replayOp) apply(state map[lineage.Var]replayRow, seq int64) {
	switch o.kind {
	case opInsert:
		state[o.v] = replayRow{table: o.table, k: o.k, val: o.val, s: o.s, conf: o.conf, cost: o.cost, createdAt: seq}
	case opSetConf:
		row := state[o.v]
		row.conf, row.createdAt = o.conf, seq
		state[o.v] = row
	default:
		for v, row := range state {
			if row.table != o.table || row.tomb || row.k != o.key {
				continue
			}
			switch {
			case o.kind == opDelete:
				row.tomb, row.conf, row.cost = true, 0, false
			case o.bump:
				row.val++
			}
			if o.kind == opUpdate && o.conf >= 0 {
				row.conf = o.conf
			}
			row.createdAt = seq
			state[v] = row
		}
	}
}

// imgRow is one visible row: its variable and cells.
type imgRow struct {
	v      lineage.Var
	k, val int64
	s      string
}

func rowOf(v lineage.Var, vals []Value) imgRow {
	return imgRow{v: v, k: vals[0].i, val: vals[1].i, s: vals[2].s}
}

// imgVar is what one variable resolves to: its row version, if any,
// and its probability.
type imgVar struct {
	ok         bool
	row        imgRow
	conf, p    float64
	tomb, cost bool
	created    int64
}

// storeImage is what one version reads: per table the rows a scan and
// RowsAt return, the rows an index probe of A returns (each sorted by
// variable), and every variable below the image's limit.
type storeImage struct {
	scan, rows [3][]imgRow
	probe      []imgRow
	vars       []imgVar
}

// observe reads snapshot s into an image of the variables below limit.
func observe(tabs []*Table, s *Snapshot, limit int) (*storeImage, error) {
	img := &storeImage{}
	for ti, tab := range tabs {
		rows, err := RunAt(tab.Scan(), s.Version())
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			img.scan[ti] = append(img.scan[ti], rowOf(row.Lineage.Variable(), row.Values))
		}
		for _, row := range tab.RowsAt(s) {
			img.rows[ti] = append(img.rows[ti], rowOf(row.Var(), row.Values()))
		}
	}
	key := s.Version() % 40
	ref, err := NewColRef(tabs[0].Schema(), "", "k")
	if err != nil {
		return nil, err
	}
	probe := Filter(tabs[0].Scan(), &Binary{Op: OpEq, Left: ref, Right: Const{Value: Int(key)}})
	if !ProbesIndex(probe) {
		return nil, fmt.Errorf("k = %d on A does not probe its index", key)
	}
	rows, err := RunAt(probe, s.Version())
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		img.probe = append(img.probe, rowOf(row.Lineage.Variable(), row.Values))
	}
	for v := range lineage.Var(limit) {
		vi := imgVar{p: s.ProbOf(v)}
		if bt, ok := s.BaseTupleByVar(v); ok {
			vi.ok, vi.row, vi.conf, vi.tomb, vi.cost, vi.created = true, rowOf(bt.Var(), bt.Values()), bt.Confidence(), bt.Tombstone(), bt.Cost() != nil, bt.CreatedVersion()
		}
		img.vars = append(img.vars, vi)
	}
	img.sort()
	return img, nil
}

// expectImage is the image of the replayed state at version at.
func expectImage(state map[lineage.Var]replayRow, at int64, limit int) *storeImage {
	img := &storeImage{vars: make([]imgVar, limit)}
	for v, row := range state {
		ri := imgRow{v: v, k: row.k, val: row.val, s: row.s}
		if !row.tomb {
			img.scan[row.table] = append(img.scan[row.table], ri)
			img.rows[row.table] = append(img.rows[row.table], ri)
			if row.table == 0 && row.k == at%40 {
				img.probe = append(img.probe, ri)
			}
		}
		img.vars[v] = imgVar{ok: true, row: ri, conf: row.conf, p: row.conf, tomb: row.tomb, cost: row.cost, created: row.createdAt}
	}
	img.sort()
	return img
}

func (img *storeImage) sort() {
	byVar := func(a, b imgRow) int { return int(a.v - b.v) }
	for ti := range img.scan {
		slices.SortFunc(img.scan[ti], byVar)
		slices.SortFunc(img.rows[ti], byVar)
	}
	slices.SortFunc(img.probe, byVar)
}

// diff describes the first place got and want part, or returns "".
func (got *storeImage) diff(want *storeImage) string {
	rows := func(what string, g, w []imgRow) string {
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				return fmt.Sprintf("%s row %d: got %+v, want %+v", what, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d rows, want %d", what, len(g), len(w))
		}
		return ""
	}
	for ti := range got.scan {
		if d := rows(fmt.Sprintf("scan of table %d", ti), got.scan[ti], want.scan[ti]); d != "" {
			return d
		}
		if d := rows(fmt.Sprintf("RowsAt of table %d", ti), got.rows[ti], want.rows[ti]); d != "" {
			return d
		}
	}
	if d := rows("index probe", got.probe, want.probe); d != "" {
		return d
	}
	for v := range got.vars {
		if got.vars[v] != want.vars[v] {
			return fmt.Sprintf("variable %d: got %+v, want %+v", v, got.vars[v], want.vars[v])
		}
	}
	return ""
}

// hash folds the image into one FNV-1a word, for readers to keep.
func (img *storeImage) hash() uint64 {
	h := fnv.New64a()
	var buf []byte
	word := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	row := func(r imgRow) {
		word(uint64(r.v))
		word(uint64(r.k))
		word(uint64(r.val))
		buf = append(append(buf, r.s...), 0)
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	for _, list := range append(append(img.scan[:], img.rows[:]...), img.probe) {
		word(uint64(len(list)))
		for _, r := range list {
			row(r)
		}
	}
	for _, vi := range img.vars {
		flag(vi.ok)
		row(vi.row)
		word(math.Float64bits(vi.conf))
		word(math.Float64bits(vi.p))
		flag(vi.tomb)
		flag(vi.cost)
		word(uint64(vi.created))
	}
	h.Write(buf)
	return h.Sum64()
}

func colRef(t *testing.T, tab *Table, name string) Expr {
	t.Helper()
	ref, err := NewColRef(tab.Schema(), "", name)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}
