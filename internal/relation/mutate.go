package relation

import (
	"pcqe/internal/lineage"
)

// rowTupleWithConfidence builds the predicate-evaluation image of a
// stored row: its values plus the current confidence appended as one
// extra REAL value, so predicates compiled against the schema extended
// with the _confidence pseudo-column (see the sql package) can read it;
// predicates compiled against the plain schema simply ignore the extra
// slot.
func rowTupleWithConfidence(row *BaseTuple) *Tuple {
	vals := make([]Value, 0, len(row.Values)+1)
	vals = append(vals, row.Values...)
	vals = append(vals, Float(row.Confidence))
	return &Tuple{Values: vals, Lineage: lineage.NewVar(row.Var)}
}

// UpdateSpec describes one column (or confidence) assignment in a
// Txn.Update call.
type UpdateSpec struct {
	// Column is the target column index; -1 targets the row's
	// confidence instead (the SQL layer maps the pseudo-column
	// "_confidence" here).
	Column int
	// Value computes the new value over the pre-update row.
	Value Expr
}
