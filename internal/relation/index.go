package relation

import (
	"sync"
)

// Index is a hash index over one column of a table, mapping value keys
// to the records holding them, ascending. A record's cells never
// change, so it sits in exactly one bucket for good, and every version
// of a row is reachable through the bucket of its own record's key:
// the buckets are chain-aware by construction. Readers keep the records
// that resolve at their version (recView.live), which screens out
// superseded, deleted and rolled-back ones.
type Index struct {
	table  *Table
	column int

	mu      sync.RWMutex
	buckets map[string][]int32
}

// Column returns the indexed column's position in the table schema.
func (ix *Index) Column() int { return ix.column }

// Len returns the number of distinct keys bucketed (including keys
// whose records no longer resolve).
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.buckets)
}

// candidates returns the bucket of v's key. The slice is shared with
// the index and only ever appended to, so callers iterate it in place:
// one probe builds one key string and nothing else.
func (ix *Index) candidates(v Value) []int32 {
	k := v.Key()
	ix.mu.RLock()
	recs := ix.buckets[k]
	ix.mu.RUnlock()
	return recs
}

// add files record r under key.
func (ix *Index) add(key string, r int32) {
	ix.mu.Lock()
	ix.buckets[key] = append(ix.buckets[key], r)
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
	ix := &Index{table: t, column: idx, buckets: map[string][]int32{}}
	v := t.view()
	for r := int32(0); int(r) < v.n; r++ {
		ch, k := v.at(r)
		ix.add(ch.cols[idx].get(k).Key(), r)
	}
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
