// Package txnmutate fixtures: versioned-state mutation stays inside the
// Txn protocol.
package txnmutate

import "sync/atomic"

// Miniature shapes of the MVCC layer the analyzer keys on.

type BaseTuple struct{ confidence float64 }

type versionSlot struct{ head atomic.Pointer[BaseTuple] }

type Catalog struct{}

type Table struct{ cat *Catalog }

func (t *Table) Insert(values []int, confidence float64) (*BaseTuple, error) {
	return nil, nil
}
func (t *Table) MustInsert(confidence float64, values ...int) *BaseTuple { return nil }

func (c *Catalog) Begin() *Txn { return &Txn{cat: c} }

type Txn struct{ cat *Catalog }

// cow inside a Txn method is the protocol: clean.
func (x *Txn) cow(slot *versionSlot, old, nv *BaseTuple) {
	slot.head.Store(nv)
}

// SetConfidence on the Txn is the protocol: clean, including in loops.
func (x *Txn) SetConfidence(v int64, p float64) error { return nil }

// Insert pushes a fresh head through cow inside a Txn method: clean.
func (x *Txn) Insert(t *Table, values []int) *BaseTuple {
	row := &BaseTuple{confidence: float64(len(values))}
	x.cow(&versionSlot{}, nil, row)
	return row
}

func (x *Txn) Commit() {}

// rogueStore publishes a chain version outside any Txn method.
func rogueStore(slot *versionSlot, nv *BaseTuple) {
	slot.head.Store(nv) // want `slot.head.Store outside a Txn method`
}

// rogueCow reaches the cow helper from outside the transaction.
func rogueCow(x *Txn, slot *versionSlot, old, nv *BaseTuple) {
	x.cow(slot, old, nv) // want `cow publishes a provisional version outside a Txn method`
}

// autoCommitLoops tears batches into one commit per row.
func autoCommitLoops(t *Table, c *Catalog, rows [][]int) error {
	for _, r := range rows {
		if _, err := t.Insert(r, 0.5); err != nil { // want `Table.Insert auto-commits one version per loop iteration`
			return err
		}
	}
	for i := range rows {
		t.MustInsert(0.5, rows[i]...) // want `Table.MustInsert auto-commits one version per loop iteration`
	}
	return nil
}

// batchedLoop is the clean shape: one transaction spans the batch.
func batchedLoop(t *Table, c *Catalog, rows [][]int) {
	x := c.Begin()
	for _, r := range rows {
		x.Insert(t, r)
	}
	for v := int64(0); v < 3; v++ {
		_ = x.SetConfidence(v, 0.7)
	}
	x.Commit()
}

// straightLine auto-commits outside a loop: clean (the single-row
// loaders exist exactly for this).
func straightLine(t *Table, c *Catalog) {
	t.MustInsert(0.5, 1, 2)
	_, _ = t.Insert([]int{3}, 0.6)
}

// allowed documents a deliberate per-row commit.
func allowed(t *Table, rows [][]int) {
	for _, r := range rows {
		//lint:allow txnmutate fixture: ingest wants per-row visibility
		t.MustInsert(0.5, r...)
	}
}
