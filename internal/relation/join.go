package relation

import (
	"fmt"
	"hash/maphash"

	"pcqe/internal/lineage"
)

// NestedLoopJoin joins two inputs with an arbitrary predicate evaluated
// over the concatenated tuple. Output lineage is the conjunction of the
// input lineages: a joined row exists only if both contributing rows do.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        Expr // nil means cross product

	out *Schema
	buildJoin
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(at int64) error {
	j.pred = j.Pred
	return j.open(j.Left, j.Right, at)
}

func (j *NestedLoopJoin) next() (*batch, error) {
	return j.cur.run(j.Left, j.Schema().Len(), j.start, j.match)
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error { return j.close(j.Left) }

// HashJoin is an equi-join on one or more column pairs. The right input
// is built into a hash table; lineage of output rows is the conjunction
// of the matching inputs' lineages. A row with a NULL key joins
// nothing: NULL = NULL is not true.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys and RightKeys are parallel column indices into the left
	// and right schemas.
	LeftKeys, RightKeys []int

	out *Schema
	buildJoin
}

// Schema implements Operator.
func (j *HashJoin) Schema() *Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *HashJoin) Open(at int64) error {
	if len(j.LeftKeys) == 0 || len(j.LeftKeys) != len(j.RightKeys) {
		return fmt.Errorf("relation: hash join requires matching non-empty key lists")
	}
	j.lkeys, j.rkeys = j.LeftKeys, j.RightKeys
	return j.open(j.Left, j.Right, at)
}

func (j *HashJoin) next() (*batch, error) {
	return j.cur.run(j.Left, j.Schema().Len(), j.start, j.match)
}

// Close implements Operator.
func (j *HashJoin) Close() error { return j.close(j.Left) }

// buildJoin is what NestedLoopJoin and HashJoin share: the right rows
// kept in input order, chained by the hash of their key columns rkeys,
// probed with each left row's lkeys (no keys: one chain, every right
// row), and pred, when set, checked over each joined row.
type buildJoin struct {
	lkeys, rkeys []int
	pred         Expr
	build        rowStore
	seed         maphash.Seed
	heads        map[uint64]int32 // key hash → its first right row
	chain        []int32          // per right row: the next with its hash, or -1
	r            int32            // the current left row's next candidate, or -1
	cur          joinCursor
	row          Tuple // the joined row pred is evaluated over
}

func (j *buildJoin) open(left, right Operator, at int64) error {
	j.cur = joinCursor{out: j.cur.out}
	if err := left.Open(at); err != nil {
		return err
	}
	j.build, j.seed = rowStore{w: right.Schema().Len()}, maphash.MakeSeed()
	var hashes []uint64 // per kept right row, its key's hash
	err := each(right, at, func(b *batch) error {
		for i := range b.len() {
			if h, ok := j.key(b.row(i), j.rkeys); ok {
				j.build.add(b.row(i), lin{e: b.lins[i].expr()})
				hashes = append(hashes, h)
			}
		}
		return nil
	})
	// Chained back to front, so a chain runs in input order.
	j.heads, j.chain = make(map[uint64]int32, j.build.n), make([]int32, j.build.n)
	for r := j.build.n - 1; r >= 0; r-- {
		h := hashes[r]
		j.chain[r] = -1
		if first, ok := j.heads[h]; ok {
			j.chain[r] = first
		}
		j.heads[h] = int32(r)
	}
	return err
}

// key hashes row's values at cols; ok is false when one is NULL.
func (j *buildJoin) key(row []Value, cols []int) (h uint64, ok bool) {
	for _, c := range cols {
		if row[c].IsNull() {
			return 0, false
		}
		h = keyHash(h, j.seed, row[c])
	}
	return h, true
}

func (j *buildJoin) start(l []Value) bool {
	j.r = -1
	if h, ok := j.key(l, j.lkeys); ok {
		if first, ok := j.heads[h]; ok {
			j.r = first
		}
	}
	return j.r >= 0
}

func (j *buildJoin) match(l []Value) (*lineage.Expr, error) {
	out := &j.cur.out
	for j.r >= 0 {
		r, n := int(j.r), len(out.vals)
		j.r = j.chain[r]
		right := j.build.row(r)
		i := 0
		for i < len(j.lkeys) && sameValue(l[j.lkeys[i]], right[j.rkeys[i]]) {
			i++
		}
		if i < len(j.lkeys) {
			continue
		}
		out.vals = append(append(out.vals, l...), right...)
		ok, err := true, error(nil)
		if j.pred != nil {
			j.row.Values = out.vals[n:]
			ok, err = EvalBool(j.pred, &j.row)
		}
		if ok {
			return j.build.lin(r).e, nil
		}
		out.vals = out.vals[:n]
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (j *buildJoin) close(left Operator) error {
	j.build, j.heads, j.chain = rowStore{}, nil, nil
	j.cur.release()
	j.row = Tuple{}
	return left.Close()
}

// IndexJoin is an equi-join on one column pair that never reads the
// inner side as a whole: each outer tuple probes the inner base table's
// hash index at the version the join was opened at, the inner leaf's
// filter and column pruning apply per match, and outer ++ inner is
// emitted with the conjunction of their lineages — the multiset and
// lineage of a HashJoin probing with Outer (a NULL key joins nothing
// there either).
type IndexJoin struct {
	Outer Operator
	// Inner is a base-table leaf (Table.Scan through Filter, Prune and
	// Rename) with a hash index on InnerKey. It is probed, never opened.
	Inner Operator
	// OuterKey and InnerKey are column positions in the two schemas.
	OuterKey, InnerKey int

	out   *Schema
	probe access // Inner's leaf, re-aimed at the join column's index
	cur   joinCursor
}

// Schema implements Operator.
func (j *IndexJoin) Schema() *Schema {
	if j.out == nil {
		j.out = j.Outer.Schema().Concat(j.Inner.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *IndexJoin) Open(at int64) error {
	leaf, _ := leafOf(j.Inner)
	var ix *Index
	if leaf != nil && j.InnerKey >= 0 && j.InnerKey < j.Inner.Schema().Len() {
		stored := j.InnerKey
		if leaf.keep != nil {
			stored = leaf.keep[stored]
		}
		ix, _ = leaf.table.IndexOn(stored)
	}
	if ix == nil {
		return fmt.Errorf("relation: index join requires a base-table leaf with a hash index on its key column as inner side")
	}
	// Whatever index the leaf's own filter chose, the join reads through
	// the join column's and checks the whole filter per match.
	j.probe = *leaf
	j.probe.index, j.probe.residual = ix, leaf.filter
	j.cur = joinCursor{out: j.cur.out}
	if err := j.probe.Open(at); err != nil {
		return err
	}
	return j.Outer.Open(at)
}

func (j *IndexJoin) next() (*batch, error) {
	return j.cur.run(j.Outer, j.Schema().Len(), j.start, j.match)
}

func (j *IndexJoin) start(l []Value) bool {
	j.probe.seek(l[j.OuterKey])
	return !l[j.OuterKey].IsNull() // a NULL key joins nothing
}

// match puts the inner match straight into the joined row: no inner
// row is built only to be copied.
func (j *IndexJoin) match(l []Value) (*lineage.Expr, error) {
	ch, off, err := j.probe.survivor()
	if ch == nil {
		return nil, err
	}
	j.cur.out.vals = j.probe.cells(append(j.cur.out.vals, l...), ch, off)
	return lineage.NewVar(ch.vars[off]), nil
}

// Close implements Operator.
func (j *IndexJoin) Close() error {
	j.cur.release()
	j.probe.Close()
	return j.Outer.Close()
}
