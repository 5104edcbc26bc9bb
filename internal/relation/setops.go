package relation

import (
	"fmt"

	"pcqe/internal/lineage"
)

// distinctRows merges equal rows as they arrive, in first-seen order,
// and ORs the lineages of each group of duplicates — the row exists if
// any of its derivations does. A group's operands are collected and its
// n-ary node built once, in rows: Or(acc, x) per duplicate copies the
// accumulated operands every time, quadratic in the group. Flattening
// is associative, so the formula is the pairwise fold's.
type distinctRows struct {
	index map[string]int
	first []*Tuple
	// dups[i] holds the lineages merged into first[i], its own leading;
	// nil while the row is unique.
	dups [][]*lineage.Expr
}

// distinct merges the rows of the given inputs, in order.
func distinct(inputs ...[]*Tuple) *distinctRows {
	d := &distinctRows{}
	for _, rows := range inputs {
		for _, t := range rows {
			d.add(t)
		}
	}
	d.rows()
	return d
}

func (d *distinctRows) add(t *Tuple) {
	if d.index == nil {
		d.index = map[string]int{}
	}
	key := t.Key()
	i, dup := d.index[key]
	if !dup {
		d.index[key] = len(d.first)
		d.first = append(d.first, t)
		d.dups = append(d.dups, nil)
		return
	}
	if d.dups[i] == nil {
		d.dups[i] = []*lineage.Expr{d.first[i].Lineage}
	}
	d.dups[i] = append(d.dups[i], t.Lineage)
}

// rows returns the merged rows. Input tuples are never modified: a
// merged group is a fresh tuple sharing its first row's values.
func (d *distinctRows) rows() []*Tuple {
	for i, ops := range d.dups {
		if ops != nil {
			d.first[i] = &Tuple{Values: d.first[i].Values, Lineage: lineage.Or(ops...)}
			d.dups[i] = nil
		}
	}
	return d.first
}

// find returns the merged row equal to t, or nil (call rows first).
func (d *distinctRows) find(t *Tuple) *Tuple {
	if i, ok := d.index[t.Key()]; ok {
		return d.first[i]
	}
	return nil
}

// Union merges two union-compatible inputs. With All set duplicates are
// kept; otherwise rows equal across inputs are merged and their lineages
// OR-ed (the row exists if either source row does).
type Union struct {
	Left, Right Operator
	All         bool

	materialized
	opened bool
}

// Schema implements Operator.
func (u *Union) Schema() *Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *Union) Open(at int64) error {
	if !u.Left.Schema().Compatible(u.Right.Schema()) {
		return fmt.Errorf("relation: UNION inputs are not union-compatible: %s vs %s",
			u.Left.Schema(), u.Right.Schema())
	}
	left, err := RunAt(u.Left, at)
	if err != nil {
		return err
	}
	right, err := RunAt(u.Right, at)
	if err != nil {
		return err
	}
	u.pos = 0
	if u.All {
		u.buffer = append(append([]*Tuple{}, left...), right...)
		return nil
	}
	u.buffer = distinct(left, right).rows()
	return nil
}

// Close implements Operator.
func (u *Union) Close() error {
	u.buffer = nil
	return nil
}

// Intersect emits rows present in both inputs (set semantics). A row's
// lineage is left ∧ right: it appears in the intersection only if both
// occurrences are real.
type Intersect struct {
	Left, Right Operator

	materialized
}

// Schema implements Operator.
func (op *Intersect) Schema() *Schema { return op.Left.Schema() }

// Open implements Operator.
func (op *Intersect) Open(at int64) error {
	if !op.Left.Schema().Compatible(op.Right.Schema()) {
		return fmt.Errorf("relation: INTERSECT inputs are not union-compatible")
	}
	left, err := RunAt(op.Left, at)
	if err != nil {
		return err
	}
	right, err := RunAt(op.Right, at)
	if err != nil {
		return err
	}
	// Deduplicate each side, OR-ing lineages of duplicates; left-input
	// order is preserved.
	rm := distinct(right)
	op.buffer, op.pos = nil, 0
	for _, t := range distinct(left).rows() {
		if rt := rm.find(t); rt != nil {
			op.buffer = append(op.buffer, &Tuple{Values: t.Values, Lineage: lineage.And(t.Lineage, rt.Lineage)})
		}
	}
	return nil
}

// Close implements Operator.
func (op *Intersect) Close() error {
	op.buffer = nil
	return nil
}

// Except emits rows of the left input absent from the right (set
// semantics). A row's lineage is left ∧ ¬right: the row survives only if
// its left occurrence is real and the matching right occurrence is not.
type Except struct {
	Left, Right Operator

	materialized
}

// Schema implements Operator.
func (op *Except) Schema() *Schema { return op.Left.Schema() }

// Open implements Operator.
func (op *Except) Open(at int64) error {
	if !op.Left.Schema().Compatible(op.Right.Schema()) {
		return fmt.Errorf("relation: EXCEPT inputs are not union-compatible")
	}
	left, err := RunAt(op.Left, at)
	if err != nil {
		return err
	}
	right, err := RunAt(op.Right, at)
	if err != nil {
		return err
	}
	// Merge duplicates on each side first (OR), then attach ∧¬right.
	rm := distinct(right)
	op.buffer, op.pos = nil, 0
	for _, t := range distinct(left).rows() {
		if rt := rm.find(t); rt != nil {
			t = &Tuple{Values: t.Values, Lineage: lineage.And(t.Lineage, lineage.Not(rt.Lineage))}
		}
		op.buffer = append(op.buffer, t)
	}
	return nil
}

// Close implements Operator.
func (op *Except) Close() error {
	op.buffer = nil
	return nil
}
