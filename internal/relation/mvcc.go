package relation

import (
	"fmt"
	"sync/atomic"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// This file holds the storage-side MVCC machinery: version chains,
// immutable snapshots, and the one lineage-variable → row-version
// lookup. See DESIGN.md §11 for the model.
//
// Every logical row is a versionSlot holding an atomically published
// chain of immutable BaseTuple versions, newest first. A version is
// stamped with the commit sequence number that created it; resolving a
// slot at a pinned sequence walks the chain to the newest version whose
// creation the pin can see. Each version names the record holding its
// values (store.go), and scans walk records, keeping those their slot
// resolves back to. Deletes push a tombstone version, so withdrawn rows
// vanish from scans while their lineage variables keep resolving (to
// confidence 0) for previously computed results.

// versionSlot is one logical row: the head of its version chain.
// The head pointer is the only mutable word; everything it points to is
// immutable once a commit publishes it, so readers never lock.
type versionSlot struct {
	head atomic.Pointer[BaseTuple]
}

// at resolves the slot to the newest version visible at commit sequence
// seq, or nil when the row did not exist yet (or the slot's provisional
// insert was rolled back). The returned version may be a tombstone.
func (s *versionSlot) at(seq int64) *BaseTuple {
	for b := s.head.Load(); b != nil; b = b.prev {
		if b.created <= seq {
			return b
		}
	}
	return nil
}

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

// varChunk holds the slots of chunkLen consecutive variables (the
// record store's chunk size).
type varChunk [chunkLen]atomic.Pointer[versionSlot]

// varDir is the variable directory: lineage variable → the slot of the
// row it names. Variables are dense from 1 (nextVar), so the directory
// is a list of fixed chunks behind one atomic pointer, and a lookup is
// two atomic loads — the list, then the slot — with no lock and no map.
//
// Publication rule: only writers, under the catalog's wmu, store into
// it. Txn.Insert stores a new slot before its commit publishes the
// version that makes the row visible, and undoAll stores nil back, so a
// reader whose snapshot can see the row also sees its entry. Growth is
// copy-on-write: the chunks are shared and never move, a grown list is
// published whole, and a reader on the old list finds every variable
// its snapshot can see.
type varDir struct {
	chunks atomic.Pointer[[]*varChunk]
}

// slot returns v's slot, or nil for a variable that was never allocated
// or whose insert was rolled back.
func (d *varDir) slot(v lineage.Var) *versionSlot {
	cs := d.chunks.Load()
	i := uint(v) // a negative variable wraps past every chunk
	if cs == nil || i>>chunkBits >= uint(len(*cs)) {
		return nil
	}
	return (*cs)[i>>chunkBits][i&chunkMask].Load()
}

// set stores v's slot (nil clears it), growing the chunk list as needed
// (writers only, under wmu).
func (d *varDir) set(v lineage.Var, s *versionSlot) {
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
	cs[c][uint(v)&chunkMask].Store(s)
}

// rowAt resolves a lineage variable to its slot and the row version
// visible at commit sequence seq (possibly a tombstone); both are nil
// for a variable that did not exist at seq. Every by-variable read —
// snapshots, assignments, transactions at their write sequence — goes
// through it, and none takes a lock.
func (c *Catalog) rowAt(v lineage.Var, seq int64) (*versionSlot, *BaseTuple) {
	slot := c.vars.slot(v)
	if slot == nil {
		return nil, nil
	}
	b := slot.at(seq)
	if b == nil {
		return nil, nil
	}
	return slot, b
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
func (s *Snapshot) BaseTupleByVar(v lineage.Var) (*BaseTuple, bool) {
	_, b := s.cat.rowAt(v, s.seq)
	return b, b != nil
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
	if _, b := p.cat.rowAt(v, p.seq); b != nil {
		return b.confidence
	}
	return 0
}

// AssignmentAt returns a lineage.Assignment that resolves base-tuple
// confidences as of committed version v.
func (c *Catalog) AssignmentAt(v int64) lineage.Assignment {
	return pinnedAssign{cat: c, seq: v}
}
