package relation

// predImage fills img with the predicate-evaluation image of a stored
// row: its cells plus its confidence as one extra REAL value, so
// predicates compiled against the schema extended with the _confidence
// pseudo-column (see the sql package) can read it; predicates compiled
// against the plain schema simply ignore the extra slot. img is reused
// from row to row, so a scan over the table allocates once.
func predImage(img *Tuple, v recView, row *BaseTuple) *Tuple {
	img.Values = append(v.values(img.Values[:0], row.rec), Float(row.confidence))
	return img
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
