package relation

import (
	"sync"
	"testing"

	"pcqe/internal/lineage"
)

// TestMVCCVarDirectoryUnderGrowth runs readers pinned to snapshots
// against a writer that grows the variable directory past three chunks,
// commits confidence updates in between and rolls back one insert
// transaction (under -race in `make mvcc-stress`). Each reader resolves
// every variable the writer will ever allocate, and some it never will,
// through ProbOf and BaseTupleByVar: every answer is the value at the
// reader's pinned version, and a variable not committed there — never
// allocated, allocated by a later commit, or rolled back — resolves as
// unknown, probability 0 and ok == false.
func TestMVCCVarDirectoryUnderGrowth(t *testing.T) {
	c, tab := newMVCCTable(t)
	const batches, perBatch = 7, 512 // 3 584 committed variables: four chunks
	const limit = (batches+1)*perBatch + 2*chunkLen

	// want[seq][v] is v's confidence at committed version seq, -1 where
	// v resolves to no row. The writer records a version's state before
	// committing it, so every version a reader can pin is recorded.
	var mu sync.Mutex
	want := map[int64][]float64{}
	state := make([]float64, limit)
	for v := range state {
		state[v] = -1
	}
	record := func(seq int64) {
		mu.Lock()
		want[seq] = append([]float64(nil), state...)
		mu.Unlock()
	}
	record(c.Version())

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var committed []lineage.Var
		for b := 0; b < batches; b++ {
			if b == 2 { // an insert transaction that never commits
				x := c.Begin()
				for i := 0; i < perBatch; i++ {
					x.MustInsert(tab, 0.5, nil, Int(-1), Int(int64(i)))
				}
				x.Rollback()
			}
			x := c.Begin()
			for i := 0; i < perBatch; i++ {
				p := dyadic(b + i)
				v := x.MustInsert(tab, p, nil, Int(int64(b)), Int(int64(i))).Var()
				state[v] = p
				committed = append(committed, v)
			}
			record(x.ReadVersion() + 1)
			if _, err := x.Commit(); err != nil {
				t.Errorf("insert commit: %v", err)
				return
			}
			x = c.Begin()
			for i := b; i < len(committed); i += 97 {
				v, p := committed[i], dyadic(3*b+i)
				if err := x.SetConfidence(v, p); err != nil {
					t.Errorf("SetConfidence: %v", err)
					x.Rollback()
					return
				}
				state[v] = p
			}
			record(x.ReadVersion() + 1)
			if _, err := x.Commit(); err != nil {
				t.Errorf("confidence commit: %v", err)
				return
			}
		}
	}()

	check := func(snap *Snapshot) bool {
		mu.Lock()
		exp := want[snap.Version()]
		mu.Unlock()
		if exp == nil {
			t.Errorf("version %d was published without a recorded state", snap.Version())
			return false
		}
		for v := lineage.Var(-1); v < limit; v++ {
			p, ok := -1.0, false
			if v >= 0 {
				p = exp[v]
				ok = p >= 0
			}
			b, gotOK := snap.BaseTupleByVar(v)
			got := snap.ProbOf(v)
			switch {
			case gotOK != ok:
				t.Errorf("version %d: variable %d resolves %v, want %v", snap.Version(), v, gotOK, ok)
				return false
			case !ok && got != 0:
				t.Errorf("version %d: unknown variable %d has probability %v, want 0", snap.Version(), v, got)
				return false
			case ok && (got != p || b.Confidence() != p || b.Var() != v):
				t.Errorf("version %d: variable %d reads %v (row %d at %v), want %v", snap.Version(), v, got, b.Var(), b.Confidence(), p)
				return false
			}
		}
		return true
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := c.Snapshot()
				ok := check(snap)
				snap.Release()
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()

	// The settled directory: the last version and every one before it.
	if got := int(c.next-1) / chunkLen; got < 3 {
		t.Fatalf("the writer allocated %d variables: the directory never grew past three chunks", c.next-1)
	}
	for seq := range want {
		snap, err := c.SnapshotAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		check(snap)
		snap.Release()
	}
}
