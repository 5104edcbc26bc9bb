package relation

import (
	"fmt"

	"pcqe/internal/lineage"
)

// NestedLoopJoin joins two inputs with an arbitrary predicate evaluated
// over the concatenated tuple. Output lineage is the conjunction of the
// input lineages: a joined row exists only if both contributing rows do.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        Expr // nil means cross product

	out     *Schema
	rows    []*Tuple // materialized right side
	current *Tuple   // current left tuple
	rpos    int
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
	j.current, j.rpos = nil, 0
	if err := j.Left.Open(at); err != nil {
		return err
	}
	rows, err := RunAt(j.Right, at)
	if err != nil {
		return err
	}
	j.rows = rows
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (*Tuple, error) {
	for {
		if j.current == nil {
			t, err := j.Left.Next()
			if err != nil || t == nil {
				return nil, err
			}
			j.current = t
			j.rpos = 0
		}
		for j.rpos < len(j.rows) {
			r := j.rows[j.rpos]
			j.rpos++
			out := combine(j.current, r)
			if j.Pred != nil {
				ok, err := EvalBool(j.Pred, out)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return out, nil
		}
		j.current = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.rows = nil
	return j.Left.Close()
}

// HashJoin is an equi-join on one or more column pairs. The right input
// is built into a hash table; lineage of output rows is the conjunction
// of the matching inputs' lineages.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys and RightKeys are parallel column indices into the left
	// and right schemas.
	LeftKeys, RightKeys []int

	out     *Schema
	table   map[string][]*Tuple
	current *Tuple
	bucket  []*Tuple
	bpos    int
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
	j.current, j.bucket, j.bpos = nil, nil, 0
	if err := j.Left.Open(at); err != nil {
		return err
	}
	rows, err := RunAt(j.Right, at)
	if err != nil {
		return err
	}
	j.table = make(map[string][]*Tuple, len(rows))
	for _, r := range rows {
		k := r.KeyOn(j.RightKeys)
		j.table[k] = append(j.table[k], r)
	}
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*Tuple, error) {
	for {
		if j.current == nil {
			t, err := j.Left.Next()
			if err != nil || t == nil {
				return nil, err
			}
			j.current = t
			j.bucket = j.table[t.KeyOn(j.LeftKeys)]
			j.bpos = 0
		}
		if j.bpos < len(j.bucket) {
			r := j.bucket[j.bpos]
			j.bpos++
			return combine(j.current, r), nil
		}
		j.current = nil
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}

// IndexJoin is an equi-join on one column pair that never reads the
// inner side as a whole: each outer tuple probes the inner base table's
// hash index at the version the join was opened at, the inner leaf's filter and column
// pruning apply per match, and outer ++ inner is emitted with the
// conjunction of their lineages — the multiset and lineage of a
// HashJoin probing with Outer (NULL keys meet NULL keys there too).
type IndexJoin struct {
	Outer Operator
	// Inner is a base-table leaf (Table.Scan through Filter, Prune and
	// Rename) with a hash index on InnerKey. It is probed, never opened.
	Inner Operator
	// OuterKey and InnerKey are column positions in the two schemas.
	OuterKey, InnerKey int

	out     *Schema
	probe   access // Inner's leaf, re-aimed at the join column's index
	current *Tuple
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
	j.current = nil
	if err := j.probe.Open(at); err != nil {
		return err
	}
	return j.Outer.Open(at)
}

// Next implements Operator.
func (j *IndexJoin) Next() (*Tuple, error) {
	for {
		if j.current == nil {
			t, err := j.Outer.Next()
			if err != nil || t == nil {
				return nil, err
			}
			j.current = t
			j.probe.seek(t.Values[j.OuterKey])
		}
		// The inner match goes straight into the joined row: no inner
		// Tuple is built only to be copied.
		ch, off, b, err := j.probe.survivor()
		if err != nil {
			return nil, err
		}
		if b != nil {
			l := j.current
			vals := append(make([]Value, 0, len(l.Values)+j.probe.out.Len()), l.Values...)
			return &Tuple{Values: j.probe.cells(vals, ch, off), Lineage: lineage.And(l.Lineage, lineage.NewVar(b.v))}, nil
		}
		j.current = nil
	}
}

// Close implements Operator.
func (j *IndexJoin) Close() error { return j.Outer.Close() }

// combine concatenates two tuples, AND-ing their lineages.
func combine(l, r *Tuple) *Tuple {
	vals := make([]Value, 0, len(l.Values)+len(r.Values))
	vals = append(vals, l.Values...)
	vals = append(vals, r.Values...)
	return &Tuple{Values: vals, Lineage: lineage.And(l.Lineage, r.Lineage)}
}
