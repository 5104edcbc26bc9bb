package relation

import (
	"sync"
)

// Index is a hash index over one column of a table, mapping value keys
// to the row slots holding them. Buckets are chain-aware: a slot is
// a member of the bucket of every key any of its versions holds, so
// readers pinned at older committed versions still find their rows;
// lookups filter by the resolved version's actual column value, which
// also screens out tombstoned and superseded-key slots.
type Index struct {
	table  *Table
	column int

	mu      sync.RWMutex
	buckets map[string][]*versionSlot
}

// Column returns the indexed column's position in the table schema.
func (ix *Index) Column() int { return ix.column }

// Len returns the number of distinct keys bucketed (including keys
// whose rows have since been deleted or re-keyed; rebuilds prune them).
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.buckets)
}

// candidates returns the bucket of v's key: every slot some version of
// which holds that key. The slice is shared with the index and only
// ever appended to, so callers iterate it in place, resolving each slot
// with at: one probe builds one key string and nothing else.
func (ix *Index) candidates(v Value) []*versionSlot {
	k := v.Key()
	ix.mu.RLock()
	slots := ix.buckets[k]
	ix.mu.RUnlock()
	return slots
}

// at resolves a candidate slot at commit sequence seq: the live row
// version, provided it still holds v there — tombstoned rows and rows
// keyed otherwise at that version resolve to nil. Values are compared
// directly (no key string per candidate), with the INTEGER/REAL folding
// their keys have: 1 and 1.0 meet in one bucket.
func (ix *Index) at(slot *versionSlot, v Value, seq int64) *BaseTuple {
	b := slot.visibleAt(seq)
	if b == nil || !sameKey(b.Values[ix.column], v) {
		return nil
	}
	return b
}

// rebuild reconstructs the buckets chain-aware: every version of every
// slot contributes its key (deduplicated per slot), so any pinned
// reader resolves its own version through some bucket.
func (ix *Index) rebuild() {
	slots := ix.table.snapshotSlots()
	buckets := make(map[string][]*versionSlot, len(slots))
	var seen []string // distinct keys within one chain; chains are short
	for _, slot := range slots {
		seen = seen[:0]
		for b := slot.head.Load(); b != nil; b = b.prev {
			if b.tombstone {
				continue
			}
			k := b.Values[ix.column].Key()
			dup := false
			for _, s := range seen {
				if s == k {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen = append(seen, k)
			buckets[k] = append(buckets[k], slot)
		}
	}
	ix.mu.Lock()
	ix.buckets = buckets
	ix.mu.Unlock()
}

// addSlot registers a freshly inserted slot under its key.
func (ix *Index) addSlot(slot *versionSlot, key string) {
	ix.mu.Lock()
	ix.buckets[key] = append(ix.buckets[key], slot)
	ix.mu.Unlock()
}

// CreateIndex builds (or returns the existing) hash index on the named
// column. Creation is its own committed version (it can change the
// chosen plan for cached queries).
func (t *Table) CreateIndex(column string) (*Index, error) {
	idx, err := t.schema.Resolve("", column)
	if err != nil {
		return nil, err
	}
	c := t.catalog
	c.wmu.Lock()
	defer c.wmu.Unlock()
	t.mu.RLock()
	existing, ok := t.indexes[idx]
	t.mu.RUnlock()
	if ok {
		return existing, nil
	}
	ix := &Index{table: t, column: idx}
	ix.rebuild()
	t.mu.Lock()
	if t.indexes == nil {
		t.indexes = map[int]*Index{}
	}
	t.indexes[idx] = ix
	t.mu.Unlock()
	c.commitDDL()
	return ix, nil
}

// IndexOn returns the index on the given column position, if any.
func (t *Table) IndexOn(column int) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[column]
	return ix, ok
}

// splitConjuncts flattens a top-level AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// joinConjuncts is splitConjuncts' inverse; no conjuncts give nil.
func joinConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Binary{Op: OpAnd, Left: out, Right: e}
	}
	return out
}

// equalityWithConst matches "col = const" or "const = col" and returns
// the column index and the constant.
func equalityWithConst(e Expr) (colIdx int, key Value, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Op != OpEq {
		return 0, Value{}, false
	}
	if cr, isCol := b.Left.(*ColRef); isCol {
		if c, isConst := b.Right.(Const); isConst && !c.Value.IsNull() {
			return cr.Index, c.Value, true
		}
	}
	if cr, isCol := b.Right.(*ColRef); isCol {
		if c, isConst := b.Left.(Const); isConst && !c.Value.IsNull() {
			return cr.Index, c.Value, true
		}
	}
	return 0, Value{}, false
}
