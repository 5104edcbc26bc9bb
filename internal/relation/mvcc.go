package relation

import (
	"fmt"
	"sync/atomic"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// This file holds the storage-side MVCC machinery: immutable
// snapshots and the one lineage-variable → row-version lookup. See
// DESIGN.md §11 for the model.
//
// A logical row's versions live in two places. The inserted version is
// its insert record's columns in the record store (store.go), born at
// the insert's commit. Every later version — a confidence change, an
// UPDATE, a DELETE's tombstone — is an immutable heap BaseTuple on an
// atomically published chain, newest first, stamped with the commit
// sequence that created it and ending at the inserted version.
// Resolving a row at a pinned sequence walks the later versions to the
// newest one the pin can see, then falls back to the inserted version
// if the pin sees its birth. Scans never resolve rows: a record's own
// [born, dead) stamps decide its visibility. Deletes push a tombstone
// version (and stamp the record dead), so withdrawn rows vanish from
// scans while their lineage variables keep resolving (to confidence 0)
// for previously computed results.

// Snapshot is an immutable read view of the catalog pinned to one
// committed version. Readers resolve every row, confidence, and epoch
// through the snapshot and are never affected by concurrent commits.
// Release returns the snapshot when the reader is done; the snapshot
// stays usable afterwards (it owns no resources beyond bookkeeping),
// but the open-snapshot gauge relies on balanced Release calls.
type Snapshot struct {
	cat *Catalog
	// version is the commit point read, copied from one published record
	// (a historical snapshot knows only its seq).
	version
	// historical marks snapshots pinned to a past version via
	// SnapshotAt: their epochs are unknowable, so caches bypass them.
	historical bool
	released   atomic.Bool
}

// Snapshot pins a read view to the current committed version. The
// (version, planEpoch, confEpoch) triple is one published record, read
// with one lock-free load.
func (c *Catalog) Snapshot() *Snapshot { return c.pin(*c.ver.Load(), false) }

// SnapshotAt pins a read view to a past committed version v, for
// journal replay and time-travel verification. Confidence caches bypass
// historical snapshots (their epoch counters are not reconstructible).
func (c *Catalog) SnapshotAt(v int64) (*Snapshot, error) {
	if cur := c.Version(); v < 0 || v > cur {
		return nil, fmt.Errorf("relation: snapshot version %d outside [0,%d]", v, cur)
	}
	return c.pin(version{seq: v}, true), nil
}

// pin opens a snapshot at commit point at and counts it as open.
func (c *Catalog) pin(at version, historical bool) *Snapshot {
	c.snapCount.Add(1)
	m := c.metrics.Load()
	m.Counter("relation.snapshots.taken").Inc()
	m.Gauge("relation.snapshots.open").Add(1)
	return &Snapshot{cat: c, version: at, historical: historical}
}

// OpenSnapshots returns the number of snapshots taken but not yet
// released.
func (c *Catalog) OpenSnapshots() int64 { return c.snapCount.Load() }

// Release marks the snapshot as done. It is idempotent.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	fault.Probe("relation.snapshot.release")
	s.cat.snapCount.Add(-1)
	s.cat.metrics.Load().Gauge("relation.snapshots.open").Add(-1)
}

// Version returns the committed version the snapshot is pinned to.
func (s *Snapshot) Version() int64 { return s.seq }

// PlanEpoch returns the plan-invalidation epoch as of the snapshot's
// version (0 for historical snapshots).
func (s *Snapshot) PlanEpoch() int64 { return s.planEpoch }

// ConfEpoch returns the confidence epoch as of the snapshot's version
// (0 for historical snapshots).
func (s *Snapshot) ConfEpoch() int64 { return s.confEpoch }

// Historical reports whether the snapshot was pinned to a past version
// via SnapshotAt rather than taken at the then-current version.
func (s *Snapshot) Historical() bool { return s.historical }

// Catalog returns the catalog the snapshot reads.
func (s *Snapshot) Catalog() *Catalog { return s.cat }

// varEntry is one variable's row: the locator of its insert record
// and the head of the versions written after the insert. The head is
// the only word that changes more than once; everything it points to is
// immutable once a commit publishes it, so readers never lock.
type varEntry struct {
	// ins is the chunk holding the insert record, at offset off; nil for
	// a variable never allocated. Both are written once, off before ins
	// is published. A rolled-back insert keeps its entry: its record is
	// never born.
	ins  atomic.Pointer[chunk]
	off  int32
	head atomic.Pointer[BaseTuple]
}

// varChunk holds the entries of chunkLen consecutive variables (the
// record store's chunk size).
type varChunk [chunkLen]varEntry

// varDir is the variable directory: lineage variable → its row's
// entry. Variables are dense from 1 (nextVar), so the directory is a
// list of fixed chunks behind one atomic pointer, and a lookup is two
// atomic loads — the list, then the entry's locator — with no lock and
// no map.
//
// Publication rule: only writers, under the catalog's wmu, store into
// it. Txn.Insert publishes the locator before its commit publishes the
// version that makes the row visible, so a reader whose snapshot can see
// the row also sees its entry. Variables are never reused. Growth is copy-on-write: the chunks are shared and
// never move, a grown list is published whole, and a reader on the old
// list finds every variable its snapshot can see.
type varDir struct {
	chunks atomic.Pointer[[]*varChunk]
}

// entry returns v's entry, or nil for a variable past the directory.
func (d *varDir) entry(v lineage.Var) *varEntry {
	cs := d.chunks.Load()
	i := uint(v) // a negative variable wraps past every chunk
	if cs == nil || i>>chunkBits >= uint(len(*cs)) {
		return nil
	}
	return &(*cs)[i>>chunkBits][i&chunkMask]
}

// insert locates v's insert record at offset k of ch, growing the chunk
// list as needed (writers only, under wmu).
func (d *varDir) insert(v lineage.Var, ch *chunk, k int) {
	var cs []*varChunk
	if p := d.chunks.Load(); p != nil {
		cs = *p
	}
	c := int(uint(v) >> chunkBits)
	if c >= len(cs) {
		grown := make([]*varChunk, c+1)
		copy(grown, cs)
		for j := len(cs); j <= c; j++ {
			grown[j] = new(varChunk)
		}
		d.chunks.Store(&grown)
		cs = grown
	}
	e := &cs[c][uint(v)&chunkMask]
	e.off = int32(k)
	e.ins.Store(ch)
}

// find resolves a lineage variable at commit sequence seq: the later
// version visible there (possibly a tombstone), else the chunk and
// offset of its insert record when the insert is visible; all zero for
// a variable that did not exist at seq. Every by-variable read —
// snapshots, assignments, transactions at their write sequence — goes
// through it, and none takes a lock or allocates.
func (c *Catalog) find(v lineage.Var, seq int64) (*BaseTuple, *chunk, int) {
	e := c.vars.entry(v)
	if e == nil {
		return nil, nil, 0
	}
	ch := e.ins.Load()
	if ch == nil {
		return nil, nil, 0
	}
	for b := e.head.Load(); b != nil; b = b.prev {
		if b.created <= seq {
			return b, nil, 0
		}
	}
	if k := int(e.off); ch.born[k].Load() <= seq {
		return nil, ch, k
	}
	return nil, nil, 0
}

// rowAt resolves a lineage variable to the row version visible at
// commit sequence seq (possibly a tombstone); false for a variable that
// did not exist at seq.
func (c *Catalog) rowAt(v lineage.Var, seq int64) (BaseTuple, bool) {
	switch b, ch, k := c.find(v, seq); {
	case b != nil:
		return *b, true
	case ch != nil:
		return ch.inserted(k), true
	}
	return BaseTuple{}, false
}

// ProbOf implements lineage.Assignment against the pinned version: the
// probability of a variable is the confidence its base tuple had at the
// snapshot's version. Unknown (or not-yet-inserted) variables have
// probability 0; deleted rows resolve to their tombstone's 0.
func (s *Snapshot) ProbOf(v lineage.Var) float64 {
	return pinnedAssign{cat: s.cat, seq: s.seq}.ProbOf(v)
}

// BaseTupleByVar resolves a lineage variable to the row version visible
// at the snapshot — possibly a zero-confidence tombstone, so lineage of
// results computed before a delete stays meaningful. It reports false
// for variables that did not exist at the pinned version.
func (s *Snapshot) BaseTupleByVar(v lineage.Var) (BaseTuple, bool) {
	return s.cat.rowAt(v, s.seq)
}

// Confidence computes the exact confidence of a derived tuple from its
// lineage under the snapshot's pinned base confidences.
func (s *Snapshot) Confidence(t *Tuple) float64 {
	return lineage.Prob(t.Lineage, s)
}

var _ lineage.Assignment = (*Snapshot)(nil)

// pinnedAssign is a lineage.Assignment resolving confidences at a fixed
// commit sequence, without snapshot bookkeeping: what AttachConfidence
// reads through.
type pinnedAssign struct {
	cat *Catalog
	seq int64
}

func (p pinnedAssign) ProbOf(v lineage.Var) float64 {
	switch b, ch, k := p.cat.find(v, p.seq); {
	case b != nil:
		return b.confidence
	case ch != nil:
		return ch.conf[k]
	}
	return 0
}

// AssignmentAt returns a lineage.Assignment that resolves base-tuple
// confidences as of committed version v.
func (c *Catalog) AssignmentAt(v int64) lineage.Assignment {
	return pinnedAssign{cat: c, seq: v}
}
