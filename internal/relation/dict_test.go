package relation

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// textTable loads a table whose TEXT column s holds the given cells
// (nil: NULL) beside an INTEGER column n numbering them.
func textTable(t *testing.T, cells ...*string) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("W", NewSchema(Column{Name: "s", Type: TypeString}, Column{Name: "n", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	x := c.Begin()
	for i, s := range cells {
		v := Null()
		if s != nil {
			v = String_(*s)
		}
		x.MustInsert(tab, 0.5, nil, v, Int(int64(i)))
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	return c, tab
}

func strs(ss ...string) []*string {
	out := make([]*string, len(ss))
	for i := range ss {
		if ss[i] != "NULL" {
			out[i] = &ss[i]
		}
	}
	return out
}

// TestTextKernelDifferential holds the TEXT filter kernels to EvalBool
// over every row: all six comparisons, either way round, against
// strings the dictionary holds and strings it lacks, over a column with
// NULL cells. = and <> compare dictionary codes; the orderings decode.
func TestTextKernelDifferential(t *testing.T) {
	c, tab := textTable(t, strs("b", "NULL", "a", "", "ab", "b", "B", "é", "NULL", "a", "zz", "b")...)
	// A row an UPDATE wrote: its cell is a code interned after the load.
	if err := inTxn(c, func(x *Txn) error {
		_, err := x.Update(tab, &Binary{Op: OpEq, Left: colRef(t, tab, "n"), Right: Const{Value: Int(4)}},
			[]UpdateSpec{{Column: 0, Value: Const{Value: String_("late")}}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rows, err := RunAt(tab.Scan(), c.Version())
	if err != nil {
		t.Fatal(err)
	}
	s := colRef(t, tab, "s")
	ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	keys := []string{"b", "a", "", "ab", "late", "é", "zz", "A", "aa", "missing", "ab\x00"}
	for _, op := range ops {
		for _, k := range keys {
			for _, flip := range []bool{false, true} {
				e := Expr(&Binary{Op: op, Left: s, Right: Const{Value: String_(k)}})
				if flip {
					e = &Binary{Op: op, Left: Const{Value: String_(k)}, Right: s}
				}
				if kernelOf(e, tab.Schema()).col < 0 {
					t.Fatalf("%s: no kernel", e)
				}
				var want []string
				for _, r := range rows {
					ok, err := EvalBool(e, r)
					if err != nil {
						t.Fatalf("%s: %v", e, err)
					}
					if ok {
						want = append(want, r.String())
					}
				}
				got, err := RunAt(Filter(tab.Scan(), e), c.Version())
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				var gotS []string
				for _, r := range got {
					gotS = append(gotS, r.String())
				}
				if strings.Join(gotS, " ") != strings.Join(want, " ") {
					t.Errorf("%s: kernel %v, EvalBool %v", e, gotS, want)
				}
			}
		}
	}
}

// TestTextCellReadAllocatesNothing reads TEXT cells and looks strings up
// in the dictionary: neither allocates, nor takes a lock (the dictionary
// has none).
func TestTextCellReadAllocatesNothing(t *testing.T) {
	c, tab := textTable(t, strs("alpha", "NULL", "beta", "alpha")...)
	v := tab.view()
	ch := v.chunks[0]
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		for k := range v.n {
			if s, ok := ch.cols[0].get(k).AsString(); ok {
				n += len(s)
			}
		}
		if _, ok := c.text.lookup("beta"); ok {
			n++
		}
		if _, ok := c.text.lookup("gamma"); ok {
			n++
		}
	}); a != 0 {
		t.Fatalf("reading TEXT cells allocates %v times", a)
	}
	if got := ch.cols[0].get(3); got != String_("alpha") {
		t.Fatalf("cell 3 = %v", got)
	}
	if a, _ := c.text.lookup("alpha"); a != ch.cols[0].codes[0] || ch.cols[0].codes[3] != a {
		t.Fatalf("equal cells hold codes %d and %d, lookup %d", ch.cols[0].codes[0], ch.cols[0].codes[3], a)
	}
}

// TestMVCCDictionaryUnderGrowth runs readers pinned to snapshots
// against a writer that grows the string dictionary past several blocks
// and probe-table sizes, one string per row, and rolls back one batch
// (under -race in `make mvcc-stress`). At its version every reader
// finds each committed row by its string, through the = kernel (a code
// looked up at Open) and through an index probe, and reads the cell
// back: no lock is taken on either side.
func TestMVCCDictionaryUnderGrowth(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("G", NewSchema(Column{Name: "s", Type: TypeString}, Column{Name: "i", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("i"); err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 6, 700 // 4 200 strings: five blocks
	// rows[seq] is how many rows version seq holds; row i's string is name(i).
	name := func(i int) string { return fmt.Sprintf("name-%d", i) }
	var mu sync.Mutex
	rows := map[int64]int{c.Version(): 0}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		n := 0
		for b := range batches {
			if b == 3 {
				x := c.Begin()
				for i := range perBatch {
					x.MustInsert(tab, 0.5, nil, String_("rolled-"+name(i)), Int(-1))
				}
				x.Rollback()
			}
			x := c.Begin()
			for range perBatch {
				x.MustInsert(tab, 0.5, nil, String_(name(n)), Int(int64(n)))
				n++
			}
			mu.Lock()
			rows[x.ReadVersion()+1] = n
			mu.Unlock()
			if _, err := x.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	s, i := &ColRef{Index: 0, Col: tab.Schema().Columns[0]}, &ColRef{Index: 1, Col: tab.Schema().Columns[1]}
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; ; k += 37 {
				select {
				case <-done:
					return
				default:
				}
				snap := c.Snapshot()
				mu.Lock()
				n := rows[snap.Version()]
				mu.Unlock()
				j := k % (n + 1) // n itself is not committed at the snapshot
				want := 0
				if j < n {
					want = 1
				}
				byText, err := RunAt(Filter(tab.Scan(), &Binary{Op: OpEq, Left: s, Right: Const{Value: String_(name(j))}}), snap.Version())
				if err != nil || len(byText) != want {
					t.Errorf("version %d: %d rows hold %q (%v), want %d", snap.Version(), len(byText), name(j), err, want)
				}
				byKey, err := RunAt(Filter(tab.Scan(), &Binary{Op: OpEq, Left: i, Right: Const{Value: Int(int64(j))}}), snap.Version())
				if err != nil || len(byKey) != want || want == 1 && byKey[0].Values[0] != String_(name(j)) {
					t.Errorf("version %d: probe of %d read %v (%v)", snap.Version(), j, byKey, err)
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	if _, ok := c.text.lookup("rolled-" + name(0)); !ok {
		t.Fatal("a rolled-back string left the append-only dictionary")
	}
}
