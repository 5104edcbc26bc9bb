package relation

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Index is a hash index over one column of a table: per hash of a key
// (keyHash), the chain of records holding a key of that hash, in
// ascending record order. A record's cells never change, so it sits on
// exactly one chain for good, and every version of a row is reachable
// through the chain of its own record's key: the chains are
// version-aware by construction. Readers keep the records that hold the
// probed key (keyHash collides across types by design: NULL and 2 hash
// alike, so a probe re-checks the cell with sameValue) and resolve at
// their version (chunk.live), which screens out superseded, deleted and
// rolled-back ones. No key string is built to file or to probe.
type Index struct {
	table  *Table
	column int
	seed   maphash.Seed

	// mu guards ends and the links list's header; a link is atomic, as
	// the writer sets the last record's link while readers walk it.
	mu    sync.RWMutex
	ends  map[uint64]chainEnds
	links []*linkChunk
}

// chainEnds is a chain's first and last record.
type chainEnds struct{ first, last int32 }

// linkChunk holds, for chunkLen consecutive records, the next record on
// each one's chain, or -1: 4 KB, an exact size class.
type linkChunk [chunkLen]atomic.Int32

// Column returns the indexed column's position in the table schema.
func (ix *Index) Column() int { return ix.column }

// Len returns the number of chains: the distinct key hashes filed
// (including those of keys whose records no longer resolve).
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ends)
}

// chain returns the first record on the chain v's key hashes to, -1
// when there is none, and the links to walk it by (next): one probe
// takes one read lock and allocates nothing. Every record a view taken
// before the probe counts is filed, so its link is in the list.
func (ix *Index) chain(v Value) (int32, []*linkChunk) {
	h := keyHash(0, ix.seed, v)
	ix.mu.RLock()
	e, ok := ix.ends[h]
	links := ix.links
	ix.mu.RUnlock()
	if !ok {
		return -1, nil
	}
	return e.first, links
}

// next returns the record after r on its chain, or -1.
func next(links []*linkChunk, r int32) int32 { return links[r>>chunkBits][r&chunkMask].Load() }

func (ix *Index) link(r int32) *atomic.Int32 { return &ix.links[r>>chunkBits][r&chunkMask] }

// add files record r, which holds v, at the end of v's chain (writers
// only).
func (ix *Index) add(v Value, r int32) {
	h := keyHash(0, ix.seed, v)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if int(r>>chunkBits) == len(ix.links) {
		ix.links = append(ix.links, new(linkChunk))
	}
	ix.link(r).Store(-1)
	e, ok := ix.ends[h]
	if ok {
		ix.link(e.last).Store(r)
		e.last = r
	} else {
		e = chainEnds{r, r}
	}
	ix.ends[h] = e
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
	ix := &Index{table: t, column: idx, seed: maphash.MakeSeed(), ends: map[uint64]chainEnds{}}
	v := t.view()
	for r := int32(0); int(r) < v.n; r++ {
		ch, k := v.at(r)
		ix.add(ch.cols[idx].get(k), r)
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
