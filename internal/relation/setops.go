package relation

import (
	"fmt"

	"pcqe/internal/lineage"
)

// matchDistinct merges the duplicates of each input, ORing their
// lineages (left drained first, both at version at), then adds to dst
// every merged left row, in order, that keep passes, given the lineage
// of the equal right row (nil when there is none), with the lineage
// keep returns.
func matchDistinct(left, right Operator, at int64, dst *rowStore, keep func(l lin, r *lineage.Expr) (lin, bool)) error {
	var l, r groups
	if err := each(left, at, l.addAll); err != nil {
		return err
	}
	if err := each(right, at, r.addAll); err != nil {
		return err
	}
	ls, rs := l.fold(lineage.OrFactored), r.fold(lineage.OrFactored)
	*dst = rowStore{w: left.Schema().Len()}
	for g := range ls.n {
		var rl *lineage.Expr
		if rg, _ := r.find(ls.row(g)); rg >= 0 {
			rl = rs.lin(int(rg)).expr()
		}
		if kept, ok := keep(*ls.lin(g), rl); ok {
			dst.add(ls.row(g), kept)
		}
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
}

// Schema implements Operator.
func (u *Union) Schema() *Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *Union) Open(at int64) error {
	if !u.Left.Schema().Compatible(u.Right.Schema()) {
		return fmt.Errorf("relation: UNION inputs are not union-compatible: %s vs %s",
			u.Left.Schema(), u.Right.Schema())
	}
	u.pos = 0
	u.rows = rowStore{w: u.Schema().Len()}
	var d groups
	add := d.addAll
	if u.All {
		add = u.rows.addAll
	}
	if err := each(u.Left, at, add); err != nil {
		return err
	}
	if err := each(u.Right, at, add); err != nil {
		return err
	}
	if !u.All {
		u.rows = *d.fold(lineage.OrFactored)
	}
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
	op.pos = 0
	return matchDistinct(op.Left, op.Right, at, &op.rows, func(l lin, r *lineage.Expr) (lin, bool) {
		if r == nil {
			return l, false
		}
		return lin{e: lineage.And(l.expr(), r)}, true
	})
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
	op.pos = 0
	return matchDistinct(op.Left, op.Right, at, &op.rows, func(l lin, r *lineage.Expr) (lin, bool) {
		if r == nil {
			return l, true
		}
		return lin{e: lineage.And(l.expr(), lineage.Not(r))}, true
	})
}
